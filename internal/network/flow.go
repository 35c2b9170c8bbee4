package network

import (
	"sync"
	"time"
)

// flowScheduler is a node's transmit scheduler: application-level
// network scheduling in the spirit of Rödiger et al. — the node's
// egress is granted to one wire batch at a time, and when several
// exchanges contend, turns rotate round-robin across the active
// (query, exchange) flows rather than first-come-first-served. A wide
// repartition that can saturate the NIC therefore shares the wire in
// alternating batches with every other live exchange instead of
// incast-starving them; the time a flow spends waiting for its turn is
// its measurable protocol overhead, surfaced as net.stall_ns.
//
// The uncontended path is one mutex acquisition: a flow that finds the
// wire idle transmits immediately. Only contending flows queue.
type flowScheduler struct {
	mu    sync.Mutex
	busy  bool
	grant map[exchangeKey][]chan struct{} // waiters per flow, FIFO
	order []exchangeKey                   // round-robin rotation of flows with waiters
	next  int                             // rotation cursor
}

// acquire blocks until the flow is granted the wire and returns how
// long it waited (0 on the uncontended fast path).
func (f *flowScheduler) acquire(k exchangeKey) time.Duration {
	f.mu.Lock()
	if !f.busy {
		f.busy = true
		f.mu.Unlock()
		return 0
	}
	ch := make(chan struct{})
	if f.grant == nil {
		f.grant = make(map[exchangeKey][]chan struct{})
	}
	if _, ok := f.grant[k]; !ok {
		f.order = append(f.order, k)
	}
	f.grant[k] = append(f.grant[k], ch)
	f.mu.Unlock()
	t0 := time.Now()
	<-ch
	return time.Since(t0)
}

// release hands the wire to the next flow in rotation, or idles it.
func (f *flowScheduler) release() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.order) == 0 {
		f.busy = false
		return
	}
	// Rotate to the next flow with waiters; the cursor survives map
	// churn because order is compacted as flows drain.
	if f.next >= len(f.order) {
		f.next = 0
	}
	k := f.order[f.next]
	q := f.grant[k]
	ch := q[0]
	if len(q) == 1 {
		delete(f.grant, k)
		f.order = append(f.order[:f.next], f.order[f.next+1:]...)
		// cursor now points at the flow after the removed one; keep it.
	} else {
		f.grant[k] = q[1:]
		f.next++
	}
	close(ch) // wire stays busy; ownership transfers to the waiter
}
