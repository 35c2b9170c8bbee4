package iterator

import (
	"sync"

	"repro/internal/block"
	"repro/internal/storage"
	"repro/internal/types"
)

// Scan reads every block of a list of partitions of one table (Appendix
// Algorithm 3), in order: one shared cursor, drawn by however many
// workers drive it. A parallel segment instance passes its node's
// partition (none when a pinned predicate prunes the node), the serial
// driver every partition it reads. As a stage beginner, Scan stamps
// order-preservation sequence numbers and the visit rate 1.0, and
// honors termination requests at Next.
type Scan struct {
	parts  []*storage.Partition
	sch    *types.Schema
	mu     sync.Mutex // guards pi, bi and seq, see Next
	pi, bi int        // cursor: block bi of partition pi
	seq    uint64
}

// NewScan builds a scan over parts. sch is the output schema: the
// partitions' record layout, whose display names may be plan-qualified.
func NewScan(sch *types.Schema, parts ...*storage.Partition) *Scan {
	return &Scan{parts: parts, sch: sch}
}

// Schema returns the scan output schema.
func (s *Scan) Schema() *types.Schema { return s.sch }

// Open implements Iterator; the cursor needs no initialisation.
func (s *Scan) Open(*Ctx) Status { return OK }

// Next returns the next unread block. The returned block is owned by
// storage and must be treated as read-only; it carries a fresh sequence
// number and visit rate 1.
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
	// Taking a block and numbering it is one step: two workers that
	// advanced the cursor and drew a sequence number separately could
	// draw them in opposite orders, and an order-preserving segment would
	// then emit the two blocks swapped.
	s.mu.Lock()
	for s.pi < len(s.parts) {
		blocks := s.parts[s.pi].Blocks
		if s.bi == len(blocks) {
			s.pi++
			s.bi = 0
			continue
		}
		src := blocks[s.bi]
		s.bi++
		seq := s.seq
		s.seq++
		s.mu.Unlock()
		out := shallowStamp(src, seq)
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
