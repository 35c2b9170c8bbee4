package iterator

import (
	"sync"
	"sync/atomic"

	"repro/internal/block"
	"repro/internal/expr"
	"repro/internal/types"
)

// selPool recycles selection-vector buffers across Next calls; workers
// call Next concurrently, so the buffer cannot live on the iterator. It
// holds pointers: a slice put into the pool as it is would be boxed, one
// allocation per Next.
var selPool = sync.Pool{New: func() any { s := make([]int32, 0, 1024); return &s }}

// Filter drops tuples failing a predicate. Its state (the compiled
// predicate) is read-only after Open, so Next needs no synchronization
// (Appendix A.2.3). The operator keeps cumulative input/output counters
// to stamp downstream visit rates with its running selectivity
// (Section 4.3).
//
// The predicate runs block-at-a-time: a compiled expr.BatchPredicate
// evaluates each input block into a selection vector and survivors are
// gathered with one bulk AppendSelected copy — by Next. A consumer that
// reads a selection in place (a hash aggregation) calls lend instead,
// which hands over the input block and its selection and gathers only
// what is too sparse to be worth reading in place.
type Filter struct {
	child Iterator
	sch   *types.Schema
	bpred expr.BatchPredicate

	// BlockPerBlock, when set, makes Next consume exactly one child
	// block per output block (possibly emitting an empty block). This
	// 1:1 mode preserves the child's sequence numbering and is required
	// when the filter feeds an order-preserving elastic buffer
	// (Section 3.2(2)). The default compacting mode refills output
	// blocks across child blocks for density.
	BlockPerBlock bool

	in, out atomic.Int64
	opened  once
	barrier *Barrier
}

// NewFilter builds a filter over child with the given predicate.
func NewFilter(child Iterator, sch *types.Schema, pred expr.Expr) *Filter {
	return &Filter{child: child, sch: sch,
		bpred: expr.CompilePredicate(pred, sch), barrier: NewBarrier()}
}

// Vectorized reports whether the predicate compiled entirely to fused
// batch kernels, with no term left to the per-row Eval fallback (plan
// display).
func (f *Filter) Vectorized() bool { return f.bpred.Fused() }

// Schema returns the (unchanged) output schema.
func (f *Filter) Schema() *types.Schema { return f.sch }

// Selectivity returns the running output/input tuple ratio, 1 until the
// first input arrives.
func (f *Filter) Selectivity() float64 {
	in := f.in.Load()
	if in == 0 {
		return 1
	}
	return float64(f.out.Load()) / float64(in)
}

// Open initializes the predicate reference (first worker) and opens the
// child recursively from every worker.
func (f *Filter) Open(ctx *Ctx) Status {
	ctx.RegisterBarrier(f.barrier)
	if st := f.child.Open(ctx); st == Terminated {
		ctx.BroadcastExit()
		return Terminated
	}
	f.opened.First() // predicate is pre-compiled; nothing to build
	f.barrier.Arrive()
	return OK
}

// newFilterOut starts an output block carrying the input block's
// stamps, sized for n tuples (at least one; it grows on demand).
func newFilterOut(sch *types.Schema, in *block.Block, n int, ctx *Ctx) *block.Block {
	if n < 1 {
		n = 1
	}
	b := block.New(sch, n*sch.Stride(), ctx.Tracker)
	b.Seq = in.Seq
	return b
}

// Next pulls child blocks and emits the qualifying tuples: the
// selection, then the gather.
func (f *Filter) Next(ctx *Ctx) (*block.Block, Status) {
	sp := selPool.Get().(*[]int32)
	b, _, st := f.next(ctx, sp, false)
	selPool.Put(sp)
	return b, st
}

// lender is an operator that can hand its consumer a selection over an
// input block in place of a gathered copy: a compacting Filter, or the
// Instrumented wrapper around one, so that EXPLAIN ANALYZE and span
// traces run the path the bare chain runs.
type lender interface {
	// lend is Next without the gather. It returns a block and the rows
	// of it that qualify (nil: all of them), in ascending order, using
	// *buf as the selection's buffer and leaving the buffer, regrown if
	// need be, there. The block is the caller's, as Next's is.
	lend(ctx *Ctx, buf *[]int32) (*block.Block, []int32, Status)
}

// lenderOf returns it as a lender, or nil when it cannot lend: a
// BlockPerBlock filter emits one block per input block for an
// order-preserving buffer, and stays on Next.
func lenderOf(it Iterator) lender {
	switch x := it.(type) {
	case *Filter:
		if !x.BlockPerBlock {
			return x
		}
	case *Instrumented:
		if lenderOf(x.child) != nil {
			return x
		}
	}
	return nil
}

func (f *Filter) lend(ctx *Ctx, buf *[]int32) (*block.Block, []int32, Status) {
	return f.next(ctx, buf, true)
}

// next is Next, and with lend set, lend: a block that keeps at least
// half its rows is handed over with its selection; the survivors of
// sparser blocks are gathered into a block of their own, as Next
// gathers every block, so that a consumer reading in place does not pay
// its per-block costs for a handful of rows.
func (f *Filter) next(ctx *Ctx, buf *[]int32, lend bool) (*block.Block, []int32, Status) {
	var outB *block.Block
	target := 0
	for {
		in, st := f.child.Next(ctx)
		if st != OK {
			// Flush the partial block gathered so far; on Terminated the
			// shrink protocol requires completely-processed input blocks
			// to reach the output before the worker exits (Section 3.1).
			if outB != nil {
				if outB.NumTuples() > 0 {
					return outB, nil, OK
				}
				outB.Recycle() // started, and nothing survived into it
			}
			return nil, nil, st
		}
		sel := f.bpred.Select(in, nil, (*buf)[:0])
		*buf = sel
		n := in.NumTuples()
		f.in.Add(int64(n))
		f.out.Add(int64(len(sel)))
		vr := in.VisitRate * f.Selectivity()
		if lend && outB == nil && 2*len(sel) >= n {
			in.VisitRate = vr
			if len(sel) == n {
				return in, nil, OK
			}
			return in, sel, OK
		}
		if outB == nil {
			// Size the block to the survivors of this first batch (it
			// grows on demand after that): a selective filter allocates
			// tuples' worth of memory, not the input block size.
			outB = newFilterOut(f.sch, in, len(sel), ctx)
			target = in.Cap()/2 + 1
		}
		outB.AppendSelected(in, sel)
		outB.VisitRate = vr
		in.Recycle() // the survivors are copied
		if f.BlockPerBlock {
			// outB was started from this input block and carries its Seq.
			return outB, nil, OK
		}
		// Compacting mode: keep pulling until the output block reaches
		// half its original capacity, then emit.
		if outB.NumTuples() >= target {
			return outB, nil, OK
		}
	}
}

// Close implements Iterator.
func (f *Filter) Close() { f.child.Close() }

// Project evaluates an expression list per tuple, producing a new
// schema. Like Filter, its state is read-only after construction.
//
// It copies every output column that is a plain input column of the
// same kind and width as one run of bytes, column to column, and
// evaluates each other expression column-at-a-time through compiled
// batch kernels, writing the typed vectors into the output's columns.
type Project struct {
	child  Iterator
	inSch  *types.Schema
	outSch *types.Schema
	// moves copies the plain columns; calc names the other output
	// columns and kerns evaluates them, index for index.
	moves []colMove
	calc  []int
	kerns []expr.BatchExpr

	opened  once
	barrier *Barrier
}

// colMove copies input column src to output column dst.
type colMove struct{ src, dst int }

// NewProject builds a projection. outSch must have one column per
// expression, with kinds matching the expressions' result kinds.
//
// A column reference whose input and output columns agree in kind and
// width becomes a byte move. The moves and the kernels write every
// output column.
func NewProject(child Iterator, inSch, outSch *types.Schema, exprs []expr.Expr) *Project {
	p := &Project{child: child, inSch: inSch, outSch: outSch, barrier: NewBarrier(),
		moves: make([]colMove, 0, len(exprs))}
	for c, e := range exprs {
		out := outSch.Cols[c]
		col, ok := e.(*expr.Col)
		if !ok || inSch.Cols[col.Idx].Kind != out.Kind || inSch.Cols[col.Idx].Width != out.Width {
			p.calc = append(p.calc, c)
			p.kerns = append(p.kerns, expr.CompileBatch(e, inSch))
			continue
		}
		p.moves = append(p.moves, colMove{src: col.Idx, dst: c})
	}
	return p
}

// Vectorized reports whether every computed projection expression
// compiled to fused batch kernels (plan display).
func (p *Project) Vectorized() bool {
	for _, k := range p.kerns {
		if !k.Fused() {
			return false
		}
	}
	return true
}

// Schema returns the projected schema.
func (p *Project) Schema() *types.Schema { return p.outSch }

// Open implements Iterator.
func (p *Project) Open(ctx *Ctx) Status {
	ctx.RegisterBarrier(p.barrier)
	if st := p.child.Open(ctx); st == Terminated {
		ctx.BroadcastExit()
		return Terminated
	}
	p.barrier.Arrive()
	return OK
}

// Next implements Iterator.
func (p *Project) Next(ctx *Ctx) (*block.Block, Status) {
	in, st := p.child.Next(ctx)
	if st != OK {
		return nil, st
	}
	n := in.NumTuples()
	out := block.New(p.outSch, n*p.outSch.Stride(), ctx.Tracker)
	out.Seq = in.Seq
	out.VisitRate = in.VisitRate
	out.SetLen(n)
	for _, m := range p.moves {
		copy(out.Col(m.dst), in.Col(m.src))
	}
	if len(p.kerns) > 0 {
		v := expr.GetVec()
		for j, k := range p.kerns {
			k.EvalVec(in, nil, v)
			writeVecColumn(out, p.calc[j], v)
		}
		expr.PutVec(v)
	}
	in.Recycle() // every output column is written
	return out, OK
}

// writeVecColumn writes vector v into column c of every row of out,
// mirroring types.PutValue's coercions: the column kind decides the
// stored representation, and NULLs store as zero values (records carry
// no null bitmap).
func writeVecColumn(out *block.Block, c int, v *expr.Vec) {
	col := out.Schema().Cols[c]
	dst := out.Col(c)
	n := out.NumTuples()
	// Kind-class mismatch between the expression and the output column
	// (should not happen: NewProject requires matching kinds) falls back
	// to the boxed coercion path rather than guessing.
	if (col.Kind == types.String) != (v.Kind == types.String) {
		for i := 0; i < n; i++ {
			types.PutField(dst, i*col.Width, col, v.Value(i))
		}
		return
	}
	switch col.Kind {
	case types.Int64, types.Date:
		for i := 0; i < n; i++ {
			var x int64
			if !v.Null[i] {
				x = v.AsInt(i)
			}
			types.PutInt(dst, i*8, x)
		}
	case types.Float64:
		for i := 0; i < n; i++ {
			var x float64
			if !v.Null[i] {
				x = v.AsFloat(i)
			}
			types.PutFloat(dst, i*8, x)
		}
	default: // String; NULL stores the empty string, like PutValue
		for i := 0; i < n; i++ {
			types.PutString(dst, i*col.Width, col.Width, v.S[i])
		}
	}
}

// Close implements Iterator.
func (p *Project) Close() { p.child.Close() }
