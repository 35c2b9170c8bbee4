package block

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/types"
)

// paxSchema draws a schema of one to eight columns over every kind, with
// CHAR widths of 1 and of more than 8 bytes, so that columns start at
// offsets of every alignment.
func paxSchema(rng *rand.Rand) *types.Schema {
	cols := make([]types.Column, 1+rng.Intn(8))
	for i := range cols {
		name := fmt.Sprintf("c%d", i)
		switch rng.Intn(5) {
		case 0:
			cols[i] = types.Col(name, types.Int64)
		case 1:
			cols[i] = types.Col(name, types.Float64)
		case 2:
			cols[i] = types.Col(name, types.Date)
		case 3:
			cols[i] = types.Char(name, 1)
		default:
			cols[i] = types.Char(name, 9+rng.Intn(8))
		}
	}
	return types.NewSchema(cols...)
}

// paxRecord draws one record of sch.
func paxRecord(rng *rand.Rand, sch *types.Schema) []byte {
	rec := make([]byte, sch.Stride())
	for c, col := range sch.Cols {
		var v types.Value
		switch col.Kind {
		case types.Int64:
			v = types.IntVal(rng.Int63() - rng.Int63())
		case types.Float64:
			v = types.FloatVal(rng.NormFloat64() * 1e6)
		case types.Date:
			v = types.DateVal(int64(rng.Intn(20000)))
		default:
			b := make([]byte, rng.Intn(col.Width+1))
			for i := range b {
				b[i] = byte('a' + rng.Intn(26))
			}
			v = types.StrVal(string(b))
		}
		types.PutValue(rec, sch, c, v)
	}
	return rec
}

// checkRows holds every Get(row, col) and ReadRow of b to the row-major
// oracle want, and every Col view to the oracle's column bytes.
func checkRows(t *testing.T, what string, b *Block, want [][]byte) {
	t.Helper()
	sch := b.Schema()
	if b.NumTuples() != len(want) {
		t.Fatalf("%s: %d tuples, the oracle has %d", what, b.NumTuples(), len(want))
	}
	var rec []byte
	for i, w := range want {
		for c := range sch.Cols {
			if got, exp := b.Get(i, c), types.GetValue(w, sch, c); got != exp {
				t.Fatalf("%s: Get(%d, %d) = %v, the oracle has %v", what, i, c, got, exp)
			}
		}
		if rec = b.ReadRow(i, rec); !bytes.Equal(rec, w) {
			t.Fatalf("%s: ReadRow(%d) = %x, the oracle has %x", what, i, rec, w)
		}
	}
	for c, col := range sch.Cols {
		off, w := sch.Offset(c), col.Width
		var exp []byte
		for _, r := range want {
			exp = append(exp, r[off:off+w]...)
		}
		if got := b.Col(c); !bytes.Equal(got, exp) {
			t.Fatalf("%s: Col(%d) = %x, the oracle's column is %x", what, c, got, exp)
		}
	}
}

// roundTrip takes b through Encode and Decode and checks the decoded
// block, and EncodeAppend's bytes, against the oracle.
func roundTrip(t *testing.T, what string, b *Block, want [][]byte) {
	t.Helper()
	enc := b.Encode(nil)
	if len(enc) != b.WireSize() || len(enc) != headerLen+len(want)*b.Schema().Stride() {
		t.Fatalf("%s: encoded %d bytes, WireSize %d", what, len(enc), b.WireSize())
	}
	if app := b.EncodeAppend([]byte("x")); !bytes.Equal(app[1:], enc) {
		t.Fatalf("%s: EncodeAppend differs from Encode", what)
	}
	d, err := Decode(b.Schema(), enc, nil)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	checkRows(t, what+" decoded", d, want)
	if again := d.Encode(nil); !bytes.Equal(again, enc) {
		t.Fatalf("%s: the decoded block re-encodes differently", what)
	}
	d.Recycle()
}

// TestPAXMatchesRowOracle fills blocks of random schemas the ways the
// engine does — partly, past their capacity through EnsureRoom, and by
// AppendSelected from another block, whole runs and scattered rows —
// and holds each, and its Encode/Decode round trip, to a row-major
// oracle of the same records.
func TestPAXMatchesRowOracle(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sch := paxSchema(rng)
		st := sch.Stride()

		// Partly filled: fewer rows than the capacity.
		capRows := 2 + rng.Intn(300)
		part := New(sch, capRows*st, nil)
		var partRows [][]byte
		for n := rng.Intn(capRows); len(partRows) < n; {
			rec := paxRecord(rng, sch)
			part.AppendRows(rec)
			partRows = append(partRows, rec)
		}
		what := fmt.Sprintf("seed %d %v partly filled (%d of %d)", seed, sch.Cols, len(partRows), part.Cap())
		checkRows(t, what, part, partRows)
		roundTrip(t, what, part, partRows)

		// Grown: starts at one row and grows row by row.
		grown := New(sch, st, nil)
		var grownRows [][]byte
		for n := 1 + rng.Intn(400); len(grownRows) < n; {
			rec := paxRecord(rng, sch)
			grown.EnsureRoom(1)
			grown.AppendRows(rec)
			grownRows = append(grownRows, rec)
		}
		what = fmt.Sprintf("seed %d %v grown to %d rows", seed, sch.Cols, len(grownRows))
		checkRows(t, what, grown, grownRows)
		roundTrip(t, what, grown, grownRows)

		// Gathered: onto a partly filled block, a selection of the grown
		// one that is a single run, then a scattered one.
		gathered := New(sch, capRows*st, nil)
		var gatheredRows [][]byte
		for _, rec := range partRows {
			gathered.AppendRows(rec)
			gatheredRows = append(gatheredRows, rec)
		}
		lo := rng.Intn(len(grownRows))
		hi := lo + rng.Intn(len(grownRows)-lo+1)
		var run, scattered []int32
		for i := lo; i < hi; i++ {
			run = append(run, int32(i))
		}
		for i := range grownRows {
			if rng.Intn(3) == 0 {
				scattered = append(scattered, int32(i))
			}
		}
		for _, sel := range [][]int32{run, scattered} {
			gathered.AppendSelected(grown, sel)
			for _, i := range sel {
				gatheredRows = append(gatheredRows, grownRows[i])
			}
		}
		what = fmt.Sprintf("seed %d %v gathered (%d run, %d scattered)", seed, sch.Cols, len(run), len(scattered))
		checkRows(t, what, gathered, gatheredRows)
		roundTrip(t, what, gathered, gatheredRows)
	}
}

// TestGatherRepeatsRows: a join's probe rows repeat an index once per
// match, and may skip as many rows as they repeat — [0, 0, 2] spans
// three indexes in three entries without being a run.
func TestGatherRepeatsRows(t *testing.T) {
	for _, w := range []int{1, 8, 13} {
		src := make([]byte, 5*w)
		for i := range src {
			src[i] = byte(i)
		}
		for _, sel := range [][]int32{{0, 0, 2}, {1, 1, 1, 4}, {0, 1, 3, 3, 4}, {2}} {
			dst := make([]byte, len(sel)*w)
			Gather(dst, src, w, sel)
			for j, i := range sel {
				if got, want := dst[j*w:(j+1)*w], src[int(i)*w:int(i+1)*w]; !bytes.Equal(got, want) {
					t.Fatalf("width %d, sel %v: entry %d is %x, want row %d's %x", w, sel, j, got, i, want)
				}
			}
		}
	}
}
