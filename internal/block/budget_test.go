package block

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

func TestBudgetReserveLimit(t *testing.T) {
	b := NewBudget("node", 1000)
	if err := b.Reserve(600); err != nil {
		t.Fatalf("reserve 600: %v", err)
	}
	err := b.Reserve(500)
	var obe *OverBudgetError
	if !errors.As(err, &obe) {
		t.Fatalf("want OverBudgetError, got %v", err)
	}
	if obe.Account != "node" || obe.Limit != 1000 || obe.Used != 600 || obe.Requested != 500 {
		t.Fatalf("bad error fields: %+v", obe)
	}
	// The refused reservation must not have mutated the account.
	if got := b.Current(); got != 600 {
		t.Fatalf("current after refusal = %d, want 600", got)
	}
	if err := b.Reserve(400); err != nil {
		t.Fatalf("reserve to exactly the limit: %v", err)
	}
	if p := b.Pressure(); p != 1.0 {
		t.Fatalf("pressure = %v, want 1.0", p)
	}
}

func TestBudgetHierarchyPropagation(t *testing.T) {
	node := NewBudget("node", 1000)
	q, err := node.SubReserve("q1", 300)
	if err != nil {
		t.Fatalf("subreserve: %v", err)
	}
	if got := node.Current(); got != 300 {
		t.Fatalf("node after prepaid = %d, want 300", got)
	}
	op := q.Sub("join")
	// Usage below the reservation causes no extra parent charge.
	op.Alloc(200)
	if got := node.Current(); got != 300 {
		t.Fatalf("node with usage under prepaid = %d, want 300", got)
	}
	// Crossing the reservation bills only the excess.
	if err := op.Reserve(250); err != nil {
		t.Fatalf("reserve: %v", err)
	}
	if got := node.Current(); got != 450 {
		t.Fatalf("node after excess = %d, want 450", got)
	}
	// A reservation the node cannot cover fails at the node account.
	if err := op.Reserve(600); err == nil {
		t.Fatal("expected over-budget error through the hierarchy")
	}
	if got, want := op.Current(), int64(450); got != want {
		t.Fatalf("op current after refusal = %d, want %d", got, want)
	}
	// Drop refunds max(cur, prepaid); the dropped account goes inert.
	q.Drop()
	if got := node.Current(); got != 0 {
		t.Fatalf("node after drop = %d, want 0", got)
	}
	op.Alloc(1 << 20)
	if got := node.Current(); got != 0 {
		t.Fatalf("node after post-drop alloc = %d, want 0", got)
	}
}

func TestBudgetDropIdleRefundsPrepaid(t *testing.T) {
	node := NewBudget("node", 1000)
	q, err := node.SubReserve("q", 700)
	if err != nil {
		t.Fatal(err)
	}
	q.Drop()
	if got := node.Current(); got != 0 {
		t.Fatalf("idle drop left %d bytes reserved", got)
	}
}

// TestTrackerBudgetRace hammers a node → query → operator hierarchy
// from many goroutines under -race and asserts the invariant the
// admission layer depends on: the node's tracked bytes never exceed its
// limit while all charging goes through Reserve.
func TestTrackerBudgetRace(t *testing.T) {
	const (
		limit      = 1 << 20
		goroutines = 8
		iters      = 2000
	)
	node := NewBudget("node", limit)
	var stop atomic.Bool
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		for !stop.Load() {
			if cur := node.Current(); cur > limit {
				t.Errorf("node current %d exceeds limit %d", cur, limit)
				return
			}
		}
	}()

	// Every query is admitted before any operator charges: one that
	// started late would otherwise find the node full and be refused.
	var wg, admitted sync.WaitGroup
	admitted.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			q, err := node.SubReserve("q", 4096)
			admitted.Done()
			admitted.Wait()
			if err != nil {
				t.Errorf("subreserve: %v", err)
				return
			}
			defer q.Drop()
			op := q.Sub("op")
			var held []int64
			for i := 0; i < iters; i++ {
				switch rng.Intn(3) {
				case 0:
					n := int64(rng.Intn(64 << 10))
					if op.Reserve(n) == nil {
						held = append(held, n)
					}
				case 1:
					if len(held) > 0 {
						op.Free(held[len(held)-1])
						held = held[:len(held)-1]
					}
				case 2:
					op.Current()
					op.Peak()
					node.Pressure()
				}
			}
			for _, n := range held {
				op.Free(n)
			}
		}(int64(g))
	}
	wg.Wait()
	stop.Store(true)
	watcher.Wait()
	if got := node.Current(); got != 0 {
		t.Fatalf("node current after all drops = %d, want 0", got)
	}
	if node.Peak() > limit {
		t.Fatalf("node peak %d exceeds limit %d", node.Peak(), limit)
	}
}

// TestTrackerFlatCompat covers the pre-hierarchy API the exchanges use.
func TestTrackerFlatCompat(t *testing.T) {
	tr := NewTracker()
	tr.Alloc(100)
	tr.Alloc(50)
	tr.Free(100)
	if tr.Current() != 50 || tr.Peak() != 150 {
		t.Fatalf("cur=%d peak=%d, want 50/150", tr.Current(), tr.Peak())
	}
	if err := tr.Reserve(1 << 40); err != nil {
		t.Fatalf("unlimited tracker refused: %v", err)
	}
	tr.Free(1 << 40)
	if p := tr.Pressure(); p != 0 {
		t.Fatalf("unlimited pressure = %v, want 0", p)
	}
}
