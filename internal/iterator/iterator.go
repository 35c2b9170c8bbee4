// Package iterator implements the engine's physical operators under the
// elastic iterator model of the paper (Section 3, Appendix A): every
// operator exposes thread-safe Open and Next so a variable pool of worker
// threads can drive the same iterator instance, sharing its state (hash
// tables, cursors, buffers) instead of partitioning it per thread.
//
// The operator set covers the paper's evaluation queries: scan, filter,
// project, hash join, hash aggregation (shared / independent / hybrid),
// sort, top-N, limit, and the exchange pair (sender / merger).
package iterator

import (
	"sync"
	"sync/atomic"

	"repro/internal/block"
)

// Status is the result of an Open or Next call, mirroring the paper's
// SUCCESS / FINISH / TERMINATED protocol (Appendix Algorithm 2).
type Status int

const (
	// OK means Next produced a block (or Open completed).
	OK Status = iota
	// End means the dataflow is exhausted (end-of-file).
	End
	// Terminated means the calling worker received a termination request
	// (shrink) and has cleanly detached; it must exit without consuming
	// further input.
	Terminated
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case OK:
		return "OK"
	case End:
		return "End"
	case Terminated:
		return "Terminated"
	}
	return "Status(?)"
}

// TermFlag is a per-worker termination request (the shrink signal). The
// flag is checked at stage beginners' Next and at iterator Open entry
// points, per Section 3.1's shrink protocol. Done exposes the request
// as a channel so stage beginners blocked on an empty network inbox can
// be woken to terminate. The zero value is ready to use.
type TermFlag struct {
	v  atomic.Bool
	mu sync.Mutex
	ch chan struct{}
}

// Request raises the termination request and wakes Done waiters.
func (t *TermFlag) Request() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.v.Swap(true) {
		return
	}
	if t.ch != nil {
		close(t.ch)
	}
}

// Requested reports whether termination has been requested.
func (t *TermFlag) Requested() bool { return t.v.Load() }

// Done returns a channel closed when termination is requested.
func (t *TermFlag) Done() <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ch == nil {
		t.ch = make(chan struct{})
		if t.v.Load() {
			close(t.ch)
		}
	}
	return t.ch
}

// Ctx is the per-worker execution context threaded through Open/Next.
// Each worker goroutine owns exactly one Ctx.
type Ctx struct {
	// WorkerID identifies the worker within its segment.
	WorkerID int
	// Term carries this worker's termination request.
	Term *TermFlag
	// Tracker accounts block memory for the query, if non-nil.
	Tracker *block.Tracker
	// OnBlockDone, if non-nil, is invoked with the tuple count each time
	// the worker finishes processing one stage-beginner block; the
	// elastic layer uses it for rate metrics.
	OnBlockDone func(tuples int)

	barriers []*Barrier // barriers this worker has registered with
}

// RegisterBarrier attaches the worker to a barrier (the paper's
// registerToAllBarriers is the loop over an iterator's barriers calling
// this). Registration is idempotent per (worker, barrier).
func (c *Ctx) RegisterBarrier(b *Barrier) {
	for _, r := range c.barriers {
		if r == b {
			return
		}
	}
	if b.register() {
		c.barriers = append(c.barriers, b)
	}
}

// BroadcastExit deregisters the worker from every barrier it joined
// (the paper's broadcastExitToAllBarriers), unblocking peers that would
// otherwise wait for it.
func (c *Ctx) BroadcastExit() {
	for _, b := range c.barriers {
		b.deregister()
	}
	c.barriers = c.barriers[:0]
}

// Iterator is the elastic open-next-close protocol. Open and Next must
// tolerate concurrent calls from multiple workers, each passing its own
// Ctx. Close is called exactly once, after every worker has returned.
type Iterator interface {
	Open(ctx *Ctx) Status
	Next(ctx *Ctx) (*block.Block, Status)
	Close()
}

// Barrier is a synchronization barrier with dynamic membership
// (Appendix A.2.2): workers register on Open, arrive at phase ends, and
// deregister on termination so remaining workers never wait for a
// departed thread. Once its phase completes the barrier enters the
// passed state and later arrivals (newly expanded workers that find the
// state already built) fall through immediately.
type Barrier struct {
	mu         sync.Mutex
	cond       *sync.Cond
	registered int
	arrived    int
	passed     bool
}

// NewBarrier returns an unpassed barrier with no members.
func NewBarrier() *Barrier {
	// The cond is created lazily (under mu) on the blocking paths:
	// barriers a single worker passes through never need one.
	return &Barrier{}
}

// signal lazily creates the cond for a caller about to Wait; call
// with mu held.
func (b *Barrier) signal() *sync.Cond {
	if b.cond == nil {
		b.cond = sync.NewCond(&b.mu)
	}
	return b.cond
}

// wake wakes blocked waiters, if any ever existed; call with mu held.
// Waiters create the cond (via signal) before sleeping, so a nil cond
// means nobody is blocked and there is nothing to allocate or wake.
func (b *Barrier) wake() {
	if b.cond != nil {
		b.cond.Broadcast()
	}
}

// register adds a member; it reports false (no-op) when the phase has
// already completed.
func (b *Barrier) register() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.passed {
		return false
	}
	b.registered++
	return true
}

// deregister removes a member that will never arrive. If everyone else
// has already arrived this completes the phase. A phase nobody arrived
// at does NOT complete: when every worker of a segment is shrunk away
// mid-phase (registered drops back to zero with zero arrivals), input
// may remain unconsumed, and a vacuously-passed barrier would let
// workers expanded later skip registration and mutate phase state
// concurrently with emitters. Leaving the barrier unpassed means those
// future workers register as ordinary members and run the phase to a
// real completion.
func (b *Barrier) deregister() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.passed {
		return
	}
	b.registered--
	if b.arrived >= b.registered && b.arrived > 0 {
		b.passed = true
		b.wake()
	}
}

// Arrive blocks the caller until all registered members have arrived or
// deregistered. On a passed barrier it returns immediately.
func (b *Barrier) Arrive() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.passed {
		return
	}
	b.arrived++
	if b.arrived >= b.registered {
		b.passed = true
		b.wake()
		return
	}
	for !b.passed {
		b.signal().Wait()
	}
}

// Passed reports whether the barrier's phase has completed.
func (b *Barrier) Passed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.passed
}

// once is a tiny helper for the paper's isFirstWorkerThread(): exactly
// one of the concurrently arriving workers wins.
type once struct{ done atomic.Bool }

// First reports true for exactly one caller.
func (o *once) First() bool { return o.done.CompareAndSwap(false, true) }
