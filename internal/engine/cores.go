package engine

import "sync"

// coreLease is one node's core budget, kept as counts. Every worker the
// engine starts on the node takes a slot; slots are shared across all
// concurrent queries, so the leased count can never exceed CoresPerNode
// — the per-node budget m of Section 4 — no matter how many queries are
// in flight. A slot names no core: the Go runtime places goroutines.
//
// When every slot is leased the pool does not refuse outright: a
// segment's first worker must always start or the dataflow would never
// reach end-of-flow (liveness). Instead AcquireOversub records the
// overdraft, so oversubscription is visible (Oversubscribed) rather
// than silent.
type coreLease struct {
	mu sync.Mutex
	// used counts leased slots, at most cap_.
	used int
	// over counts workers running beyond the budget.
	over int
	cap_ int
}

func newCoreLease(cores int) *coreLease { return &coreLease{cap_: cores} }

// Acquire leases a free slot, or reports false when the node is fully
// booked.
func (l *coreLease) Acquire() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.used == l.cap_ {
		return false
	}
	l.used++
	return true
}

// AcquireOversub starts a worker without a slot, recording the
// overdraft. Used only when Acquire failed and the caller must start a
// worker anyway (a segment's first worker).
func (l *coreLease) AcquireOversub() {
	l.mu.Lock()
	l.over++
	l.mu.Unlock()
}

// Release returns one worker's share. The overdraft is settled first,
// so Oversubscribed is always max(0, live workers − budget) whichever
// worker leaves.
func (l *coreLease) Release() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.over > 0 {
		l.over--
	} else if l.used > 0 {
		l.used--
	}
}

// Used returns the number of leased (non-oversubscribed) slots.
func (l *coreLease) Used() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.used
}

// Oversubscribed returns the outstanding overdraft: workers running
// beyond the node's core budget.
func (l *coreLease) Oversubscribed() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.over
}
