package iterator

import (
	"sync"

	"repro/internal/block"
	"repro/internal/storage"
	"repro/internal/types"
)

// Scan reads the local partition of a table (Appendix Algorithm 3). All
// workers share per-socket read cursors; a worker prefers blocks on its
// own NUMA socket and steals from other sockets once its own are
// exhausted (Section 3.2(3), NUMA awareness). As a stage beginner, Scan
// stamps order-preservation sequence numbers and the visit rate 1.0, and
// honors termination requests at Next.
type Scan struct {
	part    *storage.Partition
	sch     *types.Schema // optional display-name override
	bySock  [][]*block.Block
	mu      sync.Mutex // guards cursors and seq, see Next
	cursors []int
	seq     uint64
	opened  once
	barrier *Barrier
}

// NewScan builds a scan over a node-local partition.
func NewScan(part *storage.Partition) *Scan {
	s := &Scan{part: part, barrier: NewBarrier()}
	n := part.Sockets
	if n < 1 {
		n = 1
	}
	s.bySock = make([][]*block.Block, n)
	for _, b := range part.Blocks {
		sock := b.Socket % n
		s.bySock[sock] = append(s.bySock[sock], b)
	}
	s.cursors = make([]int, n)
	return s
}

// NewScanWithSchema builds a scan whose reported schema carries
// plan-qualified column names. The record layout is identical to the
// partition's schema; only display names differ.
func NewScanWithSchema(part *storage.Partition, sch *types.Schema) *Scan {
	s := NewScan(part)
	s.sch = sch
	return s
}

// Schema returns the scan output schema.
func (s *Scan) Schema() *types.Schema {
	if s.sch != nil {
		return s.sch
	}
	return s.part.Schema
}

// Open initializes the shared read cursors; only the first worker does
// the (trivial) work, later workers pass the barrier immediately.
func (s *Scan) Open(ctx *Ctx) Status {
	ctx.RegisterBarrier(s.barrier)
	if s.opened.First() {
		// Cursors are zero-valued and ready; nothing further to build.
	}
	s.barrier.Arrive()
	return OK
}

// Next returns the next unread block, preferring the caller's socket.
// The returned block is owned by storage and must be treated as
// read-only; it carries a fresh sequence number and visit rate 1.
func (s *Scan) Next(ctx *Ctx) (*block.Block, Status) {
	if ctx.Term.Requested() {
		// Do NOT deregister from barriers here: downstream operators may
		// still flush this worker's partially-filled output block (the
		// Section 3.1 shrink protocol), and blocking operators above will
		// apply it to shared state. Deregistering now would let their
		// phase barriers pass while that final contribution is still in
		// flight. The worker broadcasts exit at its real exit point — a
		// blocking operator's Terminated path, or the elastic pool's
		// worker teardown.
		return nil, Terminated
	}
	n := len(s.bySock)
	// Taking a block and numbering it is one step: two workers that
	// advanced a cursor and drew a sequence number separately could draw
	// them in opposite orders, and an order-preserving segment would then
	// emit the two blocks swapped.
	s.mu.Lock()
	for probe := 0; probe < n; probe++ {
		sock := (ctx.Socket + probe) % n
		idx := s.cursors[sock]
		if idx == len(s.bySock[sock]) {
			continue // socket exhausted: steal from the next one
		}
		s.cursors[sock]++
		seq := s.seq
		s.seq++
		s.mu.Unlock()
		out := shallowStamp(s.bySock[sock][idx], seq)
		// Stage beginners report consumed tuples: this feeds the
		// scheduler's processing-rate measurement (Section 4.4).
		if ctx.OnBlockDone != nil {
			ctx.OnBlockDone(out.NumTuples())
		}
		return out, OK
	}
	s.mu.Unlock()
	return nil, End
}

// Close implements Iterator.
func (s *Scan) Close() {}

// shallowStamp wraps a storage block for the dataflow: same payload,
// fresh metadata. Storage blocks are immutable in the pipeline, so
// sharing the payload is safe; metadata lives on the wrapper.
func shallowStamp(src *block.Block, seq uint64) *block.Block {
	out := *src
	out.Seq = seq
	out.VisitRate = 1.0
	return &out
}

// SerialScan reads every block of one or more partitions from a single
// worker: no per-socket cursor sharding, no barrier, no work stealing.
// The engine's serial fast path uses it where Scan's multi-worker
// machinery would be pure construction overhead; for a lone worker the
// two produce the same stream of stamped blocks.
type SerialScan struct {
	parts  []*storage.Partition
	sch    *types.Schema // optional display-name override
	pi, bi int
	seq    uint64
}

// NewSerialScan builds a serial scan over the given partitions (their
// blocks are drained in order). sch optionally overrides the reported
// schema with plan-qualified column names.
func NewSerialScan(parts []*storage.Partition, sch *types.Schema) *SerialScan {
	return &SerialScan{parts: parts, sch: sch}
}

// Schema returns the scan output schema.
func (s *SerialScan) Schema() *types.Schema {
	if s.sch != nil {
		return s.sch
	}
	return s.parts[0].Schema
}

// Open implements Iterator.
func (s *SerialScan) Open(*Ctx) Status { return OK }

// Next implements Iterator.
func (s *SerialScan) Next(ctx *Ctx) (*block.Block, Status) {
	if ctx.Term.Requested() {
		return nil, Terminated
	}
	for s.pi < len(s.parts) {
		blocks := s.parts[s.pi].Blocks
		if s.bi < len(blocks) {
			out := shallowStamp(blocks[s.bi], s.seq)
			s.bi++
			s.seq++
			if ctx.OnBlockDone != nil {
				ctx.OnBlockDone(out.NumTuples())
			}
			return out, OK
		}
		s.pi++
		s.bi = 0
	}
	return nil, End
}

// Close implements Iterator.
func (s *SerialScan) Close() {}
