package iterator

import (
	"encoding/binary"
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
// gathered with one bulk AppendSelected copy.
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
	b.Socket = in.Socket
	return b
}

// Next pulls child blocks and emits the qualifying tuples.
func (f *Filter) Next(ctx *Ctx) (*block.Block, Status) {
	var outB *block.Block
	sp := selPool.Get().(*[]int32)
	sel := (*sp)[:0]
	defer func() { *sp = sel; selPool.Put(sp) }()
	target := 0
	for {
		in, st := f.child.Next(ctx)
		if st != OK {
			// Flush the partial block gathered so far; on Terminated the
			// shrink protocol requires completely-processed input blocks
			// to reach the output before the worker exits (Section 3.1).
			if outB != nil {
				if outB.NumTuples() > 0 {
					return outB, OK
				}
				outB.Recycle() // started, and nothing survived into it
			}
			return nil, st
		}
		sel = f.bpred.Select(in, nil, sel)
		if outB == nil {
			// Size the block to the survivors of this first batch (it
			// grows on demand after that): a selective filter allocates
			// tuples' worth of memory, not the input block size.
			outB = newFilterOut(f.sch, in, len(sel), ctx)
			target = in.Cap()/2 + 1
		}
		outB.AppendSelected(in, sel)
		f.in.Add(int64(in.NumTuples()))
		f.out.Add(int64(len(sel)))
		outB.VisitRate = in.VisitRate * f.Selectivity()
		in.Recycle() // the survivors are copied
		if f.BlockPerBlock {
			// outB was started from this input block and carries its Seq.
			return outB, OK
		}
		// Compacting mode: keep pulling until the output block reaches
		// half its original capacity, then emit.
		if outB.NumTuples() >= target {
			return outB, OK
		}
	}
}

// Close implements Iterator.
func (f *Filter) Close() { f.child.Close() }

// Project evaluates an expression list per tuple, producing a new
// schema. Like Filter, its state is read-only after construction.
//
// It copies every output column that is a plain input column of the
// same kind and width as bytes, row to row, and evaluates each other
// expression column-at-a-time through compiled batch kernels, scattering
// the typed vectors into the output block's fixed-stride rows.
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

// colMove copies width bytes at offset src of every input row to offset
// dst of the output row.
type colMove struct{ src, dst, width int }

// NewProject builds a projection. outSch must have one column per
// expression, with kinds matching the expressions' result kinds.
//
// A column reference whose input and output slots agree in kind and
// width becomes a byte move, and moves adjacent in both rows merge into
// one run. Schemas have no padding, so the moves and the kernels between
// them write every byte of an output row.
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
		m := colMove{src: inSch.Offset(col.Idx), dst: outSch.Offset(c), width: out.Width}
		if k := len(p.moves) - 1; k >= 0 {
			if last := &p.moves[k]; last.src+last.width == m.src && last.dst+last.width == m.dst {
				last.width += m.width
				continue
			}
		}
		p.moves = append(p.moves, m)
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
	out.Socket = in.Socket
	out.VisitRate = in.VisitRate
	out.SetLen(n)
	for _, m := range p.moves {
		m.copyRows(out.Bytes(), in.Bytes(), p.outSch.Stride(), p.inSch.Stride())
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

// copyRows applies the move to every row: a run as wide as both rows is
// one copy of the payload, an 8-byte slot one word load and store.
func (m colMove) copyRows(dst, src []byte, dstStride, srcStride int) {
	n := len(src) / srcStride
	switch {
	case m.width == srcStride && m.width == dstStride:
		copy(dst, src)
	case m.width == 8:
		for i := 0; i < n; i++ {
			d, s := i*dstStride+m.dst, i*srcStride+m.src
			binary.LittleEndian.PutUint64(dst[d:d+8], binary.LittleEndian.Uint64(src[s:s+8]))
		}
	default:
		for i := 0; i < n; i++ {
			d, s := i*dstStride+m.dst, i*srcStride+m.src
			copy(dst[d:d+m.width], src[s:s+m.width])
		}
	}
}

// writeVecColumn scatters vector v into column c of every row of out,
// mirroring types.PutValue's coercions: the column kind decides the
// stored representation, and NULLs store as zero values (records carry
// no null bitmap).
func writeVecColumn(out *block.Block, c int, v *expr.Vec) {
	sch := out.Schema()
	col := sch.Cols[c]
	off := sch.Offset(c)
	st := sch.Stride()
	buf := out.Bytes()
	n := out.NumTuples()
	// Kind-class mismatch between the expression and the output column
	// (should not happen: NewProject requires matching kinds) falls back
	// to the boxed coercion path rather than guessing.
	if (col.Kind == types.String) != (v.Kind == types.String) {
		for i := 0; i < n; i++ {
			types.PutValue(buf[i*st:], sch, c, v.Value(i))
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
			types.PutInt(buf[i*st:], off, x)
		}
	case types.Float64:
		for i := 0; i < n; i++ {
			var x float64
			if !v.Null[i] {
				x = v.AsFloat(i)
			}
			types.PutFloat(buf[i*st:], off, x)
		}
	default: // String; NULL stores the empty string, like PutValue
		for i := 0; i < n; i++ {
			types.PutString(buf[i*st:], off, col.Width, v.S[i])
		}
	}
}

// Close implements Iterator.
func (p *Project) Close() { p.child.Close() }
