package iterator

import (
	"container/heap"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/block"
	"repro/internal/types"
)

// TopN retains the N smallest rows under the sort keys (ORDER BY ...
// LIMIT N). Each worker feeds a private bounded heap parked in a context
// pool on termination; after input end the heaps merge into one sorted
// result. It is a pipeline breaker like Sort but with O(N) state, the
// right operator for the paper's report-style queries.
type TopN struct {
	child Iterator
	sch   *types.Schema
	keys  []SortKey
	n     int

	pool      contextPool[*topHeap]
	done      *Barrier
	merged    *Barrier
	mergeOnce once

	mu     sync.Mutex
	heaps  []*topHeap
	result []rowRef
	emit   atomic.Bool
}

type topHeap struct {
	keys []SortKey
	rows []rowRef
	n    int
}

func (h *topHeap) Len() int { return len(h.rows) }
func (h *topHeap) Less(i, j int) bool {
	// Max-heap on the key order: the root is the worst retained row.
	return compareKeys(h.keys, h.rows[i].vals, h.rows[j].vals) > 0
}
func (h *topHeap) Swap(i, j int) { h.rows[i], h.rows[j] = h.rows[j], h.rows[i] }
func (h *topHeap) Push(x any)    { h.rows = append(h.rows, x.(rowRef)) }
func (h *topHeap) Pop() any {
	old := h.rows
	x := old[len(old)-1]
	h.rows = old[:len(old)-1]
	return x
}

// admits reports whether a row with these keys ranks among the n best
// seen so far.
func (h *topHeap) admits(vals []types.Value) bool {
	return len(h.rows) < h.n || compareKeys(h.keys, vals, h.rows[0].vals) < 0
}

// keep adds a row admits has accepted, in place of the worst retained
// one once the heap is full.
func (h *topHeap) keep(r rowRef) {
	if len(h.rows) < h.n {
		heap.Push(h, r)
		return
	}
	h.rows[0] = r
	heap.Fix(h, 0)
}

func (h *topHeap) offer(r rowRef) {
	if h.admits(r.vals) {
		h.keep(r)
	}
}

// NewTopN builds a top-N iterator.
func NewTopN(child Iterator, sch *types.Schema, keys []SortKey, n int) *TopN {
	return &TopN{
		child: child, sch: sch, keys: keys, n: n,
		done:   NewBarrier(),
		merged: NewBarrier(),
	}
}

// Schema returns the (unchanged) output schema.
func (t *TopN) Schema() *types.Schema { return t.sch }

// Open consumes the child, maintaining per-worker heaps, then merges.
func (t *TopN) Open(ctx *Ctx) Status {
	ctx.RegisterBarrier(t.done)
	ctx.RegisterBarrier(t.merged)
	if st := t.child.Open(ctx); st == Terminated {
		ctx.BroadcastExit()
		return Terminated
	}
	// A worker expanded after the input phase passed is not its member:
	// the merge may be running, and a parked heap taken now would never
	// reach it. Such a worker sees only the input's end.
	var h *topHeap
	if !t.done.Passed() {
		h = t.pool.get()
	}
	if h == nil {
		h = &topHeap{keys: t.keys, n: t.n}
	}
	for {
		b, st := t.child.Next(ctx)
		if st == Terminated {
			t.pool.put(h)
			ctx.BroadcastExit()
			return Terminated
		}
		if st == End {
			break
		}
		var rec []byte
		for i := 0; i < b.NumTuples(); i++ {
			rec = b.ReadRow(i, rec)
			vals := make([]types.Value, len(t.keys))
			for k, sk := range t.keys {
				vals[k] = copyVal(sk.E.Eval(rec, t.sch))
			}
			// A retained row keeps the record, so the heap pins n
			// records and not the blocks they arrived in.
			if h.admits(vals) {
				h.keep(rowRef{rec: rec, vals: vals})
				rec = nil
			}
		}
		b.Recycle()
	}
	t.mu.Lock()
	t.heaps = append(t.heaps, h)
	t.mu.Unlock()
	t.done.Arrive()
	if t.mergeOnce.First() {
		t.merge()
	}
	t.merged.Arrive()
	return OK
}

func (t *TopN) merge() {
	final := &topHeap{keys: t.keys, n: t.n}
	t.mu.Lock()
	heaps := t.heaps
	t.mu.Unlock()
	for _, h := range heaps {
		for _, r := range h.rows {
			final.offer(r)
		}
	}
	for _, v := range t.pool.drain() {
		for _, r := range v.rows {
			final.offer(r)
		}
	}
	rows := final.rows
	sort.SliceStable(rows, func(i, j int) bool {
		return compareKeys(t.keys, rows[i].vals, rows[j].vals) < 0
	})
	t.result = rows
}

// Next emits the merged result once, from whichever worker arrives
// first.
func (t *TopN) Next(ctx *Ctx) (*block.Block, Status) {
	if ctx.Term.Requested() {
		ctx.BroadcastExit()
		return nil, Terminated
	}
	if !t.emit.CompareAndSwap(false, true) {
		return nil, End
	}
	if len(t.result) == 0 {
		return nil, End
	}
	out := block.New(t.sch, len(t.result)*t.sch.Stride(), ctx.Tracker)
	for _, rr := range t.result {
		out.AppendRows(rr.rec)
	}
	return out, OK
}

// Close implements Iterator.
func (t *TopN) Close() { t.child.Close() }

// Limit passes through the first N tuples of the dataflow, shared
// across workers via an atomic counter.
type Limit struct {
	child Iterator
	sch   *types.Schema
	n     int64
	taken atomic.Int64
}

// NewLimit builds a limit iterator.
func NewLimit(child Iterator, sch *types.Schema, n int64) *Limit {
	return &Limit{child: child, sch: sch, n: n}
}

// Schema returns the (unchanged) output schema.
func (l *Limit) Schema() *types.Schema { return l.sch }

// Open implements Iterator.
func (l *Limit) Open(ctx *Ctx) Status { return l.child.Open(ctx) }

// Next implements Iterator.
func (l *Limit) Next(ctx *Ctx) (*block.Block, Status) {
	for {
		if l.taken.Load() >= l.n {
			return nil, End
		}
		b, st := l.child.Next(ctx)
		if st != OK {
			return nil, st
		}
		take := b.NumTuples()
		granted := l.n - l.taken.Add(int64(take)) + int64(take)
		if granted <= 0 {
			b.Recycle()
			return nil, End
		}
		if int64(take) > granted {
			// Trim the block to the granted quota.
			out := block.New(l.sch, int(granted)*l.sch.Stride(), ctx.Tracker)
			out.Seq = b.Seq
			out.VisitRate = b.VisitRate
			first := make([]int32, granted)
			for i := range first {
				first[i] = int32(i)
			}
			out.AppendSelected(b, first)
			b.Recycle()
			return out, OK
		}
		return b, OK
	}
}

// Close implements Iterator.
func (l *Limit) Close() { l.child.Close() }
