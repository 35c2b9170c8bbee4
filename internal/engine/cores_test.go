package engine

import (
	"math/rand"
	"testing"
)

// TestCoreLeaseCounts drives one node's lease with a random interleaving
// of elective starts, mandatory starts and exits, of leased workers and
// overdrawn ones alike, and checks the budget after every step: no more
// than cap slots leased, and the overdraft is exactly the live workers
// beyond the budget, whichever worker left.
func TestCoreLeaseCounts(t *testing.T) {
	const cap_ = 3
	rng := rand.New(rand.NewSource(1))
	l := newCoreLease(cap_)
	// leased[i] records whether live worker i started on a slot.
	var leased []bool
	releasedLeased, releasedOver := 0, 0
	for step := 0; step < 2000; step++ {
		switch op := rng.Intn(3); {
		case op == 0:
			// An elective start (EP's expansions) takes a free slot
			// or does not happen.
			if l.Acquire() {
				leased = append(leased, true)
			}
		case op == 1 || len(leased) == 0:
			// A mandatory start, the way exec.expand does it: a slot
			// if one is free, else an overdraft.
			ok := l.Acquire()
			if !ok {
				l.AcquireOversub()
			}
			leased = append(leased, ok)
		default:
			i := rng.Intn(len(leased))
			if leased[i] {
				releasedLeased++
			} else {
				releasedOver++
			}
			leased = append(leased[:i], leased[i+1:]...)
			l.Release()
		}
		live := len(leased)
		if u := l.Used(); u > cap_ {
			t.Fatalf("step %d: %d slots leased, budget %d", step, u, cap_)
		}
		if got, want := l.Oversubscribed(), max(0, live-cap_); got != want {
			t.Fatalf("step %d: overdraft %d with %d live workers on %d cores, want %d",
				step, got, live, cap_, want)
		}
	}
	if releasedLeased == 0 || releasedOver == 0 {
		t.Fatalf("released %d leased and %d overdrawn workers, want both kinds", releasedLeased, releasedOver)
	}
}
