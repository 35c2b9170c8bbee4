package iterator

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestBarrierBasic(t *testing.T) {
	b := NewBarrier()
	const n = 5
	var wg sync.WaitGroup
	var passed sync.WaitGroup
	passed.Add(n)
	for i := 0; i < n; i++ {
		if !b.register() {
			t.Fatal("register on fresh barrier failed")
		}
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.Arrive()
			passed.Done()
		}()
	}
	done := make(chan struct{})
	go func() { passed.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("barrier deadlocked")
	}
	wg.Wait()
	if !b.Passed() {
		t.Fatal("barrier should be passed")
	}
}

func TestBarrierPassedFallsThrough(t *testing.T) {
	b := NewBarrier()
	b.register()
	b.Arrive()
	if !b.Passed() {
		t.Fatal("single-member barrier should pass")
	}
	// A late (expanded) worker must not block and must not re-arm.
	if b.register() {
		t.Fatal("register on passed barrier should be a no-op")
	}
	doneCh := make(chan struct{})
	go func() { b.Arrive(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(time.Second):
		t.Fatal("late arrival blocked on passed barrier")
	}
}

func TestBarrierDeregisterReleasesWaiters(t *testing.T) {
	b := NewBarrier()
	b.register() // waiter
	b.register() // the one that will leave
	released := make(chan struct{})
	go func() {
		b.Arrive()
		close(released)
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter block
	b.deregister()                    // departing worker broadcasts exit
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("deregister did not release waiting worker")
	}
}

func TestBarrierDeregisterBeforeAnyArrive(t *testing.T) {
	b := NewBarrier()
	b.register()
	b.deregister()
	if b.Passed() {
		// A phase nobody arrived at must not complete: the lone member
		// may have been shrunk away with input left unconsumed, and a
		// vacuous pass would let later-expanded workers skip
		// registration and race the phase's state.
		t.Fatal("lone member leaving must not complete a never-arrived phase")
	}
	// A worker expanded later joins as an ordinary member and completes
	// the phase for real.
	if !b.register() {
		t.Fatal("register after deregister-to-zero should succeed")
	}
	b.Arrive()
	if !b.Passed() {
		t.Fatal("replacement member arriving should complete the phase")
	}
}

// Fuzzed join/leave/arrive schedules must never deadlock (DESIGN.md
// invariant: barrier liveness).
func TestBarrierFuzzedMembership(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		b := NewBarrier()
		rng := rand.New(rand.NewSource(int64(trial)))
		n := rng.Intn(8) + 1
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			if !b.register() {
				continue
			}
			wg.Add(1)
			leave := rng.Intn(3) == 0
			delay := time.Duration(rng.Intn(3)) * time.Millisecond
			go func(leave bool, delay time.Duration) {
				defer wg.Done()
				time.Sleep(delay)
				if leave {
					b.deregister()
					return
				}
				b.Arrive()
			}(leave, delay)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("trial %d deadlocked", trial)
		}
	}
}

// TestContextPoolModes checks the one reuse mode: a context parked by a
// departing worker goes to whichever worker asks next.
func TestContextPoolModes(t *testing.T) {
	var p contextPool[string]
	p.put("ctx0")
	if v := p.get(); v != "ctx0" {
		t.Fatalf("get = %q, want the parked context", v)
	}
	if v := p.get(); v != "" {
		t.Fatalf("get on an empty pool = %q", v)
	}
}

// TestContextPoolDrain checks that drain returns each parked context
// once.
func TestContextPoolDrain(t *testing.T) {
	var p contextPool[int]
	for v := 1; v <= 3; v++ {
		p.put(v)
	}
	if v := p.get(); v != 3 {
		t.Fatalf("get = %d, want 3", v)
	}
	p.put(4)
	got := p.drain()
	slices.Sort(got)
	if !slices.Equal(got, []int{1, 2, 4}) {
		t.Fatalf("drained %v, want [1 2 4]", got)
	}
	if len(p.drain()) != 0 {
		t.Fatal("second drain should be empty")
	}
}
