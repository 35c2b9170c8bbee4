package iterator

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/block"
	"repro/internal/expr"
	"repro/internal/types"
)

// TestProjectMovesMatchRowExec holds Project — column moves for plain
// columns, kernels for the rest — to putValueRows, a per-row
// Eval + PutValue reference, byte for byte, on seeded random schemas
// and projections: permuted, duplicated and adjacent columns, the
// identity, and columns mixed with computed expressions and width
// changes. Under the race detector the output blocks come from a
// poisoned arena, so a byte no move or kernel writes shows as 0xA5.
// (The name, and the subtest names under it, predate the reference's
// move into this file.)
func TestProjectMovesMatchRowExec(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sch := randomProjSchema(rng)
		blocks := randomProjBlocks(rng, sch)
		for _, shape := range randomProjections(rng, sch) {
			t.Run(fmt.Sprintf("seed%d/%s", seed, shape.name), func(t *testing.T) {
				cols := make([]types.Column, len(shape.exprs))
				for c, e := range shape.exprs {
					cols[c] = types.Column{Name: fmt.Sprintf("o%d", c), Kind: e.Kind(sch), Width: 8}
					if cols[c].Kind == types.String {
						cols[c].Width = expr.StringWidth(e, sch) + shape.widen[c]
					}
				}
				outSch := types.NewSchema(cols...)
				p := NewProject(&blockSource{blocks: blocks}, sch, outSch, shape.exprs)
				if shape.moves > 0 && len(p.moves) != shape.moves {
					t.Fatalf("%d moves, want %d", len(p.moves), shape.moves)
				}
				got, want := drainBytes(t, p), putValueRows(blocks, sch, outSch, shape.exprs)
				if !bytes.Equal(got, want) {
					st := outSch.Stride()
					for r := 0; r*st < len(want); r++ {
						if g, w := got[r*st:(r+1)*st], want[r*st:(r+1)*st]; !bytes.Equal(g, w) {
							t.Fatalf("%s over %v: row %d is %x, PutValue wrote %x", shape.exprs, sch.Cols, r, g, w)
						}
					}
					t.Fatalf("%d output bytes, PutValue wrote %d", len(got), len(want))
				}
			})
		}
	}
}

// putValueRows is the reference projection: every expression Eval'd
// per input row and stored with PutValue, rows back to back.
func putValueRows(blocks []*block.Block, sch, outSch *types.Schema, exprs []expr.Expr) []byte {
	var out, rec []byte
	for _, b := range blocks {
		for i := 0; i < b.NumTuples(); i++ {
			rec = b.ReadRow(i, rec)
			dst := make([]byte, outSch.Stride())
			for c, e := range exprs {
				types.PutValue(dst, outSch, c, e.Eval(rec, sch))
			}
			out = append(out, dst...)
		}
	}
	return out
}

// drainBytes runs a projection on one worker and returns its output
// rows back to back as records, recycling each block once copied.
func drainBytes(t *testing.T, p *Project) []byte {
	t.Helper()
	ctx := &Ctx{Term: &TermFlag{}}
	if st := p.Open(ctx); st != OK {
		t.Fatal(st)
	}
	var out, rec []byte
	for {
		b, st := p.Next(ctx)
		if st != OK {
			return out
		}
		for i := 0; i < b.NumTuples(); i++ {
			rec = b.ReadRow(i, rec)
			out = append(out, rec...)
		}
		b.Recycle()
	}
}

func randomProjSchema(rng *rand.Rand) *types.Schema {
	kinds := []types.Kind{types.Int64, types.Date, types.Float64, types.String}
	cols := make([]types.Column, 1+rng.Intn(8))
	for i := range cols {
		cols[i] = types.Column{Name: fmt.Sprintf("c%d", i), Kind: kinds[rng.Intn(len(kinds))], Width: 8}
		if cols[i].Kind == types.String {
			cols[i].Width = 1 + rng.Intn(12)
		}
	}
	return types.NewSchema(cols...)
}

// randomProjBlocks fills a few shared blocks of random sizes. Floats
// include −0, ±Inf and NaN; strings are empty, partly filled or full.
func randomProjBlocks(rng *rand.Rand, sch *types.Schema) []*block.Block {
	floats := []float64{math.Copysign(0, -1), 0, -1.5, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64}
	ints := []int64{0, -1, 1, math.MinInt64, math.MaxInt64, 1 << 40}
	blocks := make([]*block.Block, 1+rng.Intn(4))
	for i := range blocks {
		n := 1 + rng.Intn(300)
		b := block.New(sch, n*sch.Stride(), nil)
		for r := 0; r < n; r++ {
			rec := make([]byte, b.Schema().Stride())
			for c, col := range sch.Cols {
				switch col.Kind {
				case types.Int64, types.Date:
					types.PutInt(rec, sch.Offset(c), ints[rng.Intn(len(ints))]+int64(rng.Intn(1000)))
				case types.Float64:
					types.PutFloat(rec, sch.Offset(c), floats[rng.Intn(len(floats))])
				default:
					s := make([]byte, []int{0, col.Width, rng.Intn(col.Width + 1)}[rng.Intn(3)])
					for k := range s {
						s[k] = byte('a' + rng.Intn(26))
					}
					types.PutString(rec, sch.Offset(c), col.Width, string(s))
				}
			}
			b.AppendRows(rec)
		}
		b.MarkShared() // replayed by both projections
		blocks[i] = b
	}
	return blocks
}

type projShape struct {
	name  string
	exprs []expr.Expr
	widen []int // per output column, bytes added to a string column's width
	moves int   // the number of column moves NewProject must find; 0: not checked
}

func randomProjections(rng *rand.Rand, sch *types.Schema) []projShape {
	n := sch.NumCols()
	ref := func(i int) expr.Expr { return expr.NewCol(i, sch.Cols[i].Name) }
	shape := func(name string, idx ...int) projShape {
		s := projShape{name: name, moves: len(idx), widen: make([]int, len(idx))}
		for _, i := range idx {
			s.exprs = append(s.exprs, ref(i))
		}
		return s
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	lo := rng.Intn(n)
	hi := lo + 1 + rng.Intn(n-lo)
	dup := make([]int, 1+rng.Intn(10))
	for i := range dup {
		dup[i] = rng.Intn(n)
	}
	shapes := []projShape{
		shape("identity", all...),
		shape("permuted", rng.Perm(n)...),
		shape("duplicated", dup...),
		shape("adjacent", all[lo:hi]...),
	}
	// Mixed: each column either as itself, computed from itself, or (for
	// a string) widened so kind and width no longer both agree.
	var mixed projShape
	mixed.name = "mixed"
	for _, i := range rng.Perm(n) {
		e, widen := ref(i), 0
		if rng.Intn(2) == 0 {
			switch sch.Cols[i].Kind {
			case types.Int64:
				e = expr.NewArith(expr.Add, e, expr.NewConst(types.IntVal(7)))
			case types.Date:
				e = expr.NewArith(expr.Sub, e, expr.NewConst(types.IntVal(30)))
			case types.Float64:
				e = expr.NewArith(expr.Mul, expr.NewConst(types.IntVal(1)), expr.NewArith(expr.Sub, e, expr.NewConst(types.FloatVal(0.5))))
			default:
				widen = 3
			}
		}
		mixed.exprs = append(mixed.exprs, e)
		mixed.widen = append(mixed.widen, widen)
	}
	return append(shapes, mixed)
}
