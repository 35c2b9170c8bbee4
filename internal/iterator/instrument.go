package iterator

import (
	"time"

	"repro/internal/block"
	"repro/internal/telemetry"
)

// Instrumented wraps any iterator with per-operator accounting: every
// Open and Next is timed into the query scope's per-operator counters
// (op.<id>.rows / blocks / busy_ns / open_ns / next_calls) and — when
// the scope has span tracing enabled — emitted as a span attributed to
// the operator, segment, node and calling worker. EXPLAIN ANALYZE and
// the span exporter both read these, so the plan annotations and the
// trace are two views of the same counters.
//
// Instrumentation is opt-in per query: the engine inserts the wrapper
// only for analyzed or span-traced runs, so the default execution path
// keeps the bare iterator chain — zero added time.Now calls, zero
// allocations in the vectorized hot loops.
//
// Busy time is cumulative worker time inside Next, the operator's whole
// subtree included (workers call Next concurrently, so totals can
// exceed wall time). Self time is derived at render time by subtracting
// the children's busy time.
type Instrumented struct {
	child Iterator
	scope *telemetry.Scope
	label string
	seg   string
	node  int
	op    int

	rows  *telemetry.Counter
	blks  *telemetry.Counter
	busy  *telemetry.Counter
	open  *telemetry.Counter
	calls *telemetry.Counter
}

// Instrument wraps child with accounting under the given plan-operator
// id. label is the operator's display name ("filter", "hash join", …);
// seg/node attribute spans.
func Instrument(child Iterator, scope *telemetry.Scope, op int, label, seg string, node int) *Instrumented {
	return &Instrumented{
		child: child,
		scope: scope,
		label: label,
		seg:   seg,
		node:  node,
		op:    op,
		rows:  scope.Counter(telemetry.OpCtr(op, telemetry.OpRows)),
		blks:  scope.Counter(telemetry.OpCtr(op, telemetry.OpBlocks)),
		busy:  scope.Counter(telemetry.OpCtr(op, telemetry.OpBusyNs)),
		open:  scope.Counter(telemetry.OpCtr(op, telemetry.OpOpenNs)),
		calls: scope.Counter(telemetry.OpCtr(op, telemetry.OpNextCalls)),
	}
}

// Unwrap returns the wrapped iterator (tests and operator-specific
// probes reach through the instrumentation with it).
func (it *Instrumented) Unwrap() Iterator { return it.child }

// Open implements Iterator.
func (it *Instrumented) Open(ctx *Ctx) Status {
	sp := it.scope.StartSpan("open "+it.label, "op").
		WithNode(it.node).WithWorker(ctx.WorkerID).WithSegment(it.seg).WithOp(it.op)
	t0 := time.Now()
	st := it.child.Open(ctx)
	it.open.Add(time.Since(t0).Nanoseconds())
	sp.End()
	return st
}

// Next implements Iterator.
func (it *Instrumented) Next(ctx *Ctx) (*block.Block, Status) {
	sp, t0 := it.beginNext(ctx)
	b, st := it.child.Next(ctx)
	it.endNext(sp, t0, b, nil, st)
	return b, st
}

// lend is Next's accounting around the wrapped filter's lend (lenderOf
// admits the wrapper only around a lender): the rows it counts are the
// selected ones, the rows the filter would have gathered.
func (it *Instrumented) lend(ctx *Ctx, buf *[]int32) (*block.Block, []int32, Status) {
	sp, t0 := it.beginNext(ctx)
	b, sel, st := lenderOf(it.child).lend(ctx, buf)
	it.endNext(sp, t0, b, sel, st)
	return b, sel, st
}

func (it *Instrumented) beginNext(ctx *Ctx) (*telemetry.Span, time.Time) {
	sp := it.scope.StartSpan("next "+it.label, "op").
		WithNode(it.node).WithWorker(ctx.WorkerID).WithSegment(it.seg).WithOp(it.op)
	return sp, time.Now()
}

// endNext accounts one call that returned b, whose rows are sel (nil:
// all of them).
func (it *Instrumented) endNext(sp *telemetry.Span, t0 time.Time, b *block.Block, sel []int32, st Status) {
	it.busy.Add(time.Since(t0).Nanoseconds())
	it.calls.Inc()
	if st == OK {
		n := int64(b.NumTuples())
		if sel != nil {
			n = int64(len(sel))
		}
		it.rows.Add(n)
		it.blks.Inc()
		sp.WithRows(n).WithBlocks(1)
	}
	sp.End()
}

// Close implements Iterator.
func (it *Instrumented) Close() {
	sp := it.scope.StartSpan("close "+it.label, "op").
		WithNode(it.node).WithSegment(it.seg).WithOp(it.op)
	it.child.Close()
	sp.End()
}
