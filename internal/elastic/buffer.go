package elastic

import (
	"container/heap"
	"sync"

	"repro/internal/block"
)

// Buffer is the elastic iterator's joint data buffer (Section 3.1): the
// worker threads insert output blocks concurrently, and the parent
// (typically the sender) removes them. It is bounded, providing the
// backpressure that makes over-producing segments visible to the
// scheduler, and optionally order-preserving: blocks are released in
// stage-beginner sequence order by merging the per-worker ascending
// runs (Section 3.2(2)).
type Buffer struct {
	mu       sync.Mutex
	notEmpty *sync.Cond
	notFull  *sync.Cond

	fifo    []*block.Block
	pq      seqHeap
	ordered bool
	nextSeq uint64
	capB    int
	eof     bool

	// stats (under mu)
	inserted   int64
	insertWait int64 // number of Insert calls that had to wait (blocked)
	removeWait int64 // number of Remove calls that had to wait (starved)
}

// NewBuffer creates a buffer holding at most capBlocks blocks. In
// ordered mode capBlocks must comfortably exceed the maximum worker
// count, or in-flight gaps could fill the buffer; NewBuffer enforces a
// floor of 64.
func NewBuffer(capBlocks int, ordered bool) *Buffer {
	if capBlocks < 64 && ordered {
		capBlocks = 64
	}
	if capBlocks < 1 {
		capBlocks = 1
	}
	b := &Buffer{capB: capBlocks, ordered: ordered}
	b.notEmpty = sync.NewCond(&b.mu)
	b.notFull = sync.NewCond(&b.mu)
	return b
}

type seqHeap []*block.Block

func (h seqHeap) Len() int           { return len(h) }
func (h seqHeap) Less(i, j int) bool { return h[i].Seq < h[j].Seq }
func (h seqHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *seqHeap) Push(x any)        { *h = append(*h, x.(*block.Block)) }
func (h *seqHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func (b *Buffer) len() int {
	if b.ordered {
		return len(b.pq)
	}
	return len(b.fifo)
}

// Insert takes a block from the worker that produced it, blocking while
// the buffer is full. After CloseEOF there is no consumer left to hand
// it to: late blocks from a shutting-down segment are recycled.
func (b *Buffer) Insert(blk *block.Block) {
	b.mu.Lock()
	defer b.mu.Unlock()
	waited := false
	// In ordered mode the block carrying the next expected sequence
	// number is always admitted, even over capacity: the consumer is
	// waiting for exactly this block, and holding it out would deadlock
	// the pipeline against its own backpressure.
	for b.len() >= b.capB && !b.eof && !(b.ordered && blk.Seq <= b.nextSeq) {
		if !waited {
			b.insertWait++
			waited = true
		}
		b.notFull.Wait()
	}
	if b.eof {
		blk.Recycle()
		return
	}
	if b.ordered {
		heap.Push(&b.pq, blk)
	} else {
		b.fifo = append(b.fifo, blk)
	}
	b.inserted++
	b.notEmpty.Broadcast()
}

// Remove returns the next block, blocking until one is available; ok is
// false once the buffer is at end-of-flow and drained. In ordered mode
// a block is available only when it carries the next expected sequence
// number.
func (b *Buffer) Remove() (*block.Block, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	waited := false
	for {
		if b.ordered {
			if len(b.pq) > 0 && b.pq[0].Seq <= b.nextSeq {
				blk := heap.Pop(&b.pq).(*block.Block)
				b.nextSeq = blk.Seq + 1
				b.notFull.Broadcast()
				return blk, true
			}
			if b.eof {
				// Gaps can never be filled after EOF: release remaining
				// blocks in sequence order.
				if len(b.pq) > 0 {
					blk := heap.Pop(&b.pq).(*block.Block)
					b.nextSeq = blk.Seq + 1
					return blk, true
				}
				return nil, false
			}
		} else {
			if len(b.fifo) > 0 {
				blk := b.fifo[0]
				b.fifo = b.fifo[1:]
				b.notFull.Broadcast()
				return blk, true
			}
			if b.eof {
				return nil, false
			}
		}
		if !waited {
			b.removeWait++
			waited = true
		}
		b.notEmpty.Wait()
	}
}

// CloseEOF marks the end of the dataflow; pending blocks remain
// removable, blocked inserters are released.
func (b *Buffer) CloseEOF() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.eof = true
	b.notEmpty.Broadcast()
	b.notFull.Broadcast()
}

// Len returns the current number of buffered blocks.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.len()
}

// Cap returns the buffer capacity in blocks.
func (b *Buffer) Cap() int { return b.capB }

// Stats returns (inserted blocks, insert waits, remove waits): the raw
// signals behind the scheduler's over-/under-producing classification.
func (b *Buffer) Stats() (inserted, insertWaits, removeWaits int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.inserted, b.insertWait, b.removeWait
}
