package block

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/types"
)

func vecTestSchema() *types.Schema {
	return types.NewSchema(
		types.Col("id", types.Int64),
		types.Char("tag", 6),
		types.Col("v", types.Float64),
	)
}

func fillRows(b *Block, sch *types.Schema, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		b.EnsureRoom(1)
		r := make([]byte, b.Schema().Stride())
		types.PutValue(r, sch, 0, types.IntVal(int64(i)))
		types.PutValue(r, sch, 1, types.StrVal(string(rune('a'+rng.Intn(26)))))
		types.PutValue(r, sch, 2, types.FloatVal(rng.Float64()*100))
		b.AppendRows(r)
	}
}

// TestAppendSelected checks the run-coalescing gather against a
// row-at-a-time reference across selection shapes: empty, singletons,
// dense runs, full block, and appends into a non-empty destination.
func TestAppendSelected(t *testing.T) {
	sch := vecTestSchema()
	src := New(sch, 0, nil)
	fillRows(src, sch, 100, 7)

	sels := [][]int32{
		nil,
		{},
		{0},
		{99},
		{5, 17, 42},                   // isolated rows
		{10, 11, 12, 13, 14},          // one run
		{0, 1, 2, 50, 51, 52, 97, 99}, // mixed runs and gaps
	}
	full := make([]int32, 100)
	for i := range full {
		full[i] = int32(i)
	}
	sels = append(sels, full)

	for si, sel := range sels {
		got := New(sch, 0, nil)
		got.AppendSelected(src, sel)
		want := New(sch, 0, nil)
		for _, i := range sel {
			want.EnsureRoom(1)
			want.AppendRows(src.ReadRow(int(i), nil))
		}
		if got.NumTuples() != want.NumTuples() || !bytes.Equal(got.Encode(nil), want.Encode(nil)) {
			t.Fatalf("sel %d: AppendSelected diverged from row-at-a-time gather", si)
		}
		// Appending again must extend, not overwrite.
		got.AppendSelected(src, []int32{3, 4})
		if got.NumTuples() != want.NumTuples()+2 {
			t.Fatalf("sel %d: second append: %d tuples", si, got.NumTuples())
		}
		if !bytes.Equal(got.ReadRow(want.NumTuples(), nil), src.ReadRow(3, nil)) {
			t.Fatalf("sel %d: second append wrote wrong row", si)
		}
	}
}

func TestAppendSelectedStrideMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on stride mismatch")
		}
	}()
	a := New(vecTestSchema(), 0, nil)
	b := New(types.NewSchema(types.Col("x", types.Int64)), 0, nil)
	fillRows(a, vecTestSchema(), 1, 1)
	b.AppendSelected(a, []int32{0})
}

func TestSetLenBounds(t *testing.T) {
	sch := vecTestSchema()
	b := New(sch, 10*sch.Stride(), nil)
	b.SetLen(10)
	if b.NumTuples() != 10 {
		t.Fatalf("NumTuples = %d", b.NumTuples())
	}
	b.SetLen(0)
	for _, bad := range []int{-1, b.Cap() + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SetLen(%d): no panic", bad)
				}
			}()
			b.SetLen(bad)
		}()
	}
}

// TestEncodeDecodeGrownBlock round-trips a block that EnsureRoom grew
// well past its initial capacity.
func TestEncodeDecodeGrownBlock(t *testing.T) {
	sch := vecTestSchema()
	tr := NewTracker()
	b := New(sch, 2*sch.Stride(), tr) // tiny: forces several growths
	fillRows(b, sch, 75, 11)
	b.VisitRate = 0.25
	b.Seq = 42

	enc := b.Encode(nil)
	tr2 := NewTracker()
	d, err := Decode(sch, enc, tr2)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumTuples() != b.NumTuples() || !bytes.Equal(d.Encode(nil), b.Encode(nil)) {
		t.Fatal("grown block payload did not round-trip")
	}
	if d.VisitRate != 0.25 || d.Seq != 42 {
		t.Fatalf("metadata did not round-trip: vr=%v seq=%d", d.VisitRate, d.Seq)
	}
	d.Release()
	if got := tr2.Current(); got != 0 {
		t.Fatalf("decode tracker leaks %d bytes after Release", got)
	}
	b.Release()
	if got := tr.Current(); got != 0 {
		t.Fatalf("grown-block tracker leaks %d bytes after Release", got)
	}
}

// TestEncodeDecodeZeroTuples round-trips an empty block; Decode must
// still produce a usable (non-zero capacity) block and balance its
// tracker.
func TestEncodeDecodeZeroTuples(t *testing.T) {
	sch := vecTestSchema()
	b := New(sch, 0, nil)
	b.Seq = 9
	enc := b.Encode(nil)

	tr := NewTracker()
	d, err := Decode(sch, enc, tr)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumTuples() != 0 || d.Seq != 9 {
		t.Fatalf("zero-tuple round trip: n=%d seq=%d", d.NumTuples(), d.Seq)
	}
	if d.Cap() < 1 {
		t.Fatal("decoded empty block has no capacity")
	}
	d.Release()
	if got := tr.Current(); got != 0 {
		t.Fatalf("tracker leaks %d bytes", got)
	}
}

// TestTrackerBalancedOnEveryPath drives each allocation path —
// construction, growth, decode, and double Release — and requires
// Current to return to zero.
func TestTrackerBalancedOnEveryPath(t *testing.T) {
	sch := vecTestSchema()
	tr := NewTracker()

	// New + Release.
	a := New(sch, 0, tr)
	a.Release()
	if tr.Current() != 0 {
		t.Fatalf("after New+Release: %d", tr.Current())
	}

	// New + EnsureRoom growth + Release: Release frees the grown size.
	b := New(sch, sch.Stride(), tr)
	b.EnsureRoom(100)
	b.Release()
	if tr.Current() != 0 {
		t.Fatalf("after growth+Release: %d", tr.Current())
	}

	// Release twice must not double-free.
	c := New(sch, 0, tr)
	c.Release()
	c.Release()
	if tr.Current() != 0 {
		t.Fatalf("after double Release: %d", tr.Current())
	}

	// Growth after Release stays untracked (the tracker detached).
	d := New(sch, sch.Stride(), tr)
	d.Release()
	d.EnsureRoom(50)
	if tr.Current() != 0 {
		t.Fatalf("growth after Release charged the tracker: %d", tr.Current())
	}

	// Encode/Decode/Release over a non-trivial block.
	e := New(sch, 0, tr)
	fillRows(e, sch, 30, 3)
	enc := e.Encode(nil)
	f, err := Decode(sch, enc, tr)
	if err != nil {
		t.Fatal(err)
	}
	e.Release()
	f.Release()
	if tr.Current() != 0 {
		t.Fatalf("after encode/decode cycle: %d", tr.Current())
	}
	if tr.Peak() <= 0 {
		t.Fatal("peak never recorded")
	}
}
