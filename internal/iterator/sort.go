package iterator

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/block"
	"repro/internal/expr"
	"repro/internal/types"
)

// SortKey is one ORDER BY term.
type SortKey struct {
	E    expr.Expr
	Desc bool
}

// compareKeys orders two cached key-value slices under the key specs.
func compareKeys(keys []SortKey, a, b []types.Value) int {
	for i := range keys {
		d := a[i].Compare(b[i])
		if d != 0 {
			if keys[i].Desc {
				return -d
			}
			return d
		}
	}
	return 0
}

// Sort is the blocking sort iterator (Appendix Algorithm 8), a pipeline
// breaker with four parallel phases separated by dynamic barriers:
//
//  1. collect: all workers drain the child into a shared block buffer;
//  2. chunk sort: workers claim blocks (chunks) from an atomic cursor
//     and sort each locally;
//  3. separators: the first worker samples global separator keys
//     defining disjoint key ranges;
//  4. range merge: workers claim ranges and k-way merge the sorted
//     chunks restricted to their range, yielding globally sorted output.
//
// Termination requests are honored between chunks, keeping shrinkage
// delay proportional to one chunk (the paper's tunable trade-off).
type Sort struct {
	child Iterator
	sch   *types.Schema
	keys  []SortKey

	// Mem wires the sort into memory governance (set by the engine
	// before Open; nil runs untracked). Sort is the one stateful
	// operator without a shed path — its collected blocks are all
	// needed until the merge — so it charges the soft (unconditional)
	// side of the budget: over-limit raises the node's pressure, the
	// scheduler reacts by refusing expansions and shrinking pools, and
	// spillable peers (joins, aggs) shed instead.
	Mem      *MemConfig
	memBytes atomic.Int64

	mu        sync.Mutex
	collected []*block.Block

	chunkCur atomic.Int64
	chunks   struct {
		sync.Mutex
		list []sortedChunk
	}

	sepOnce    once
	separators [][]types.Value // boundaries between ranges (len = ranges-1)
	ranges     [][]rowRef      // merged output per range
	rangeCur   atomic.Int64

	emitRange atomic.Int64

	barCollect *Barrier
	barChunks  *Barrier
	barSeps    *Barrier
	barMerge   *Barrier
}

// rowRef is one row on its way through a sort: its record bytes and
// its evaluated sort keys. The record is the operator's own copy of a
// row it read.
type rowRef struct {
	rec  []byte
	vals []types.Value
}

type sortedChunk struct {
	rows []rowRef
}

// NewSort builds a sort iterator over child.
func NewSort(child Iterator, sch *types.Schema, keys []SortKey) *Sort {
	return &Sort{
		child: child, sch: sch, keys: keys,
		barCollect: NewBarrier(),
		barChunks:  NewBarrier(),
		barSeps:    NewBarrier(),
		barMerge:   NewBarrier(),
	}
}

// Schema returns the (unchanged) output schema.
func (s *Sort) Schema() *types.Schema { return s.sch }

// Open implements the four-phase parallel sort.
func (s *Sort) Open(ctx *Ctx) Status {
	for _, b := range []*Barrier{s.barCollect, s.barChunks, s.barSeps, s.barMerge} {
		ctx.RegisterBarrier(b)
	}
	if st := s.child.Open(ctx); st == Terminated {
		ctx.BroadcastExit()
		return Terminated
	}

	// Phase 1: collect.
	for {
		b, st := s.child.Next(ctx)
		if st == Terminated {
			ctx.BroadcastExit()
			return Terminated
		}
		if st == End {
			break
		}
		s.mu.Lock()
		s.collected = append(s.collected, b)
		s.mu.Unlock()
		s.Mem.forceSmall(int64(b.SizeBytes()))
		s.memBytes.Add(int64(b.SizeBytes()))
	}
	s.barCollect.Arrive()

	// Phase 2: chunk sort (one collected block per chunk).
	for {
		if ctx.Term.Requested() {
			ctx.BroadcastExit()
			return Terminated
		}
		idx := s.chunkCur.Add(1) - 1
		if idx >= int64(len(s.collected)) {
			break
		}
		// The chunk's rows move into records of its own, and the block
		// goes back to the arena.
		blk := s.collected[idx]
		s.collected[idx] = nil
		rows := make([]rowRef, blk.NumTuples())
		st := s.sch.Stride()
		recs := make([]byte, len(rows)*st)
		for r := range rows {
			rows[r] = s.makeRef(blk.ReadRow(r, recs[r*st:(r+1)*st]))
		}
		blk.Recycle()
		sort.Slice(rows, func(i, j int) bool {
			return compareKeys(s.keys, rows[i].vals, rows[j].vals) < 0
		})
		s.chunks.Lock()
		s.chunks.list = append(s.chunks.list, sortedChunk{rows: rows})
		s.chunks.Unlock()
	}
	s.barChunks.Arrive()

	// Phase 3: the first worker computes global separators.
	if s.sepOnce.First() {
		s.computeSeparators()
	}
	s.barSeps.Arrive()

	// Phase 4: range merge.
	for {
		if ctx.Term.Requested() {
			ctx.BroadcastExit()
			return Terminated
		}
		r := s.rangeCur.Add(1) - 1
		if r >= int64(len(s.ranges)) {
			break
		}
		s.mergeRange(int(r))
	}
	s.barMerge.Arrive()
	return OK
}

func (s *Sort) makeRef(rec []byte) rowRef {
	vals := make([]types.Value, len(s.keys))
	for i, k := range s.keys {
		vals[i] = copyVal(k.E.Eval(rec, s.sch))
	}
	return rowRef{rec: rec, vals: vals}
}

// computeSeparators samples chunk keys and picks range boundaries. The
// range count scales with the data so range merging parallelizes.
func (s *Sort) computeSeparators() {
	var sample []rowRef
	for _, c := range s.chunks.list {
		step := len(c.rows)/32 + 1
		for i := 0; i < len(c.rows); i += step {
			sample = append(sample, c.rows[i])
		}
	}
	sort.Slice(sample, func(i, j int) bool {
		return compareKeys(s.keys, sample[i].vals, sample[j].vals) < 0
	})
	nRanges := len(s.chunks.list)
	if nRanges > 16 {
		nRanges = 16
	}
	if nRanges < 1 {
		nRanges = 1
	}
	s.ranges = make([][]rowRef, nRanges)
	s.separators = make([][]types.Value, 0, nRanges-1)
	for i := 1; i < nRanges; i++ {
		s.separators = append(s.separators, sample[len(sample)*i/nRanges].vals)
	}
}

// rangeOf returns the merge range a key belongs to.
func (s *Sort) rangeOf(vals []types.Value) int {
	lo, hi := 0, len(s.separators)
	for lo < hi {
		mid := (lo + hi) / 2
		if compareKeys(s.keys, vals, s.separators[mid]) < 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// mergeRange k-way merges the chunk rows falling into range r.
func (s *Sort) mergeRange(r int) {
	var rows []rowRef
	for _, c := range s.chunks.list {
		lo := sort.Search(len(c.rows), func(i int) bool {
			return s.rangeOf(c.rows[i].vals) >= r
		})
		hi := sort.Search(len(c.rows), func(i int) bool {
			return s.rangeOf(c.rows[i].vals) > r
		})
		rows = append(rows, c.rows[lo:hi]...)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		return compareKeys(s.keys, rows[i].vals, rows[j].vals) < 0
	})
	s.ranges[r] = rows
}

// Next emits one range's rows per call, in range order, behind an atomic
// cursor.
func (s *Sort) Next(ctx *Ctx) (*block.Block, Status) {
	for {
		if ctx.Term.Requested() {
			ctx.BroadcastExit()
			return nil, Terminated
		}
		r := s.emitRange.Add(1) - 1
		if r >= int64(len(s.ranges)) {
			return nil, End
		}
		rows := s.ranges[r]
		if len(rows) == 0 {
			continue
		}
		out := block.New(s.sch, len(rows)*s.sch.Stride(), ctx.Tracker)
		out.Seq = uint64(r)
		for _, rr := range rows {
			out.AppendRows(rr.rec)
		}
		return out, OK
	}
}

// Close implements Iterator. Runs after every worker exited: the blocks
// no chunk sort took (a worker left first) go back to the arena, and
// dropping the merge state keeps a serving node from pinning sorted
// runs until the GC finds the operator.
func (s *Sort) Close() {
	s.child.Close()
	for _, b := range s.collected {
		if b != nil {
			b.Recycle()
		}
	}
	s.collected = nil
	s.chunks.list = nil
	s.ranges, s.separators = nil, nil
	s.Mem.freeSmall(s.memBytes.Swap(0))
	s.Mem.releaseAll()
}
