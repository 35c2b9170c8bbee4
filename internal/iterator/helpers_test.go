package iterator

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/block"
	"repro/internal/storage"
	"repro/internal/types"
)

// buildPartition fills a partition with rows produced by fill(i, rec).
func buildPartition(sch *types.Schema, rows int, blockSize int,
	fill func(i int, rec []byte)) *storage.Partition {
	p := new(storage.Store).CreatePartition("t", sch)
	l := storage.NewLoader(p, blockSize)
	rec := make([]byte, sch.Stride())
	for i := 0; i < rows; i++ {
		clear(rec) // fill may set only some columns
		fill(i, rec)
		l.Append(rec)
	}
	l.Close()
	return p
}

// runWorkers drives an iterator with n concurrent workers, collecting
// every output block. It mimics the elastic worker loop (Appendix
// Algorithm 2) without the elastic buffer.
func runWorkers(it Iterator, n int) []*block.Block { return runWorkersTracked(it, n, nil) }

// runWorkersTracked is runWorkers with the workers' blocks accounted to
// tr.
func runWorkersTracked(it Iterator, n int, tr *block.Tracker) []*block.Block {
	var mu sync.Mutex
	var out []*block.Block
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ctx := &Ctx{WorkerID: id, Term: &TermFlag{}, Tracker: tr}
			if st := it.Open(ctx); st != OK {
				return
			}
			for {
				b, st := it.Next(ctx)
				if st != OK {
					return
				}
				mu.Lock()
				out = append(out, b)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return out
}

// collectInts flattens column col of the blocks into a sorted-insensitive
// multiset (map value → count).
func collectInts(blocks []*block.Block, col int) map[int64]int {
	m := make(map[int64]int)
	for _, b := range blocks {
		for i := 0; i < b.NumTuples(); i++ {
			m[b.Get(i, col).I]++
		}
	}
	return m
}

func totalTuples(blocks []*block.Block) int {
	n := 0
	for _, b := range blocks {
		n += b.NumTuples()
	}
	return n
}

// chanInbox adapts a channel to the Inbox interface for tests.
type chanInbox struct{ ch chan *block.Block }

func (c *chanInbox) Recv(cancel <-chan struct{}) (*block.Block, RecvStatus) {
	select {
	case b, ok := <-c.ch:
		if !ok {
			return nil, RecvEOF
		}
		return b, RecvOK
	case <-cancel:
		return nil, RecvCancelled
	}
}

// chanOutbox is a test Outbox collecting sent blocks per destination.
type chanOutbox struct {
	dests  [][]*block.Block
	mu     sync.Mutex
	closed atomic.Bool
}

func newChanOutbox(n int) *chanOutbox {
	return &chanOutbox{dests: make([][]*block.Block, n)}
}

func (c *chanOutbox) Destinations() int { return len(c.dests) }

func (c *chanOutbox) Send(d int, b *block.Block) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dests[d] = append(c.dests[d], b)
	return nil
}

func (c *chanOutbox) CloseSend() error {
	c.closed.Store(true)
	return nil
}

var _ = rand.Int // keep math/rand imported for tests that need it
