package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/sse"
	"repro/internal/telemetry"
	"repro/internal/types"
)

func testCluster(t *testing.T) *engine.Cluster {
	t.Helper()
	cat := catalog.New(2)
	sse.RegisterTables(cat, 4000)
	c := engine.NewCluster(engine.Config{
		Nodes: 2, CoresPerNode: 2, Mode: engine.EP, BlockSize: 4096,
	}, cat)
	if err := sse.Load(c, sse.GenConfig{Rows: 4000, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestAdmissionTimeout: with every slot held, a waiter whose timeout
// expires gets the typed error.
func TestAdmissionTimeout(t *testing.T) {
	s := New(nil, Config{MaxInflight: 1, QueueTimeout: 30 * time.Millisecond})
	if err := s.admit(context.Background()); err != nil {
		t.Fatal(err)
	}
	err := s.admit(context.Background())
	if !errors.Is(err, ErrAdmissionTimeout) {
		t.Fatalf("err = %v, want ErrAdmissionTimeout", err)
	}
	s.release()
	if inflight, queued := s.Stats(); inflight != 0 || queued != 0 {
		t.Fatalf("after release: inflight=%d queued=%d, want 0/0", inflight, queued)
	}
}

// TestQueueFull: arrivals beyond MaxQueue waiters fail fast.
func TestQueueFull(t *testing.T) {
	s := New(nil, Config{MaxInflight: 1, MaxQueue: 1, QueueTimeout: time.Minute})
	if err := s.admit(context.Background()); err != nil {
		t.Fatal(err)
	}
	queuedErr := make(chan error, 1)
	go func() { queuedErr <- s.admit(context.Background()) }()
	// Wait for the waiter to be parked.
	for i := 0; ; i++ {
		if _, q := s.Stats(); q == 1 {
			break
		}
		if i > 1000 {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.admit(context.Background()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	s.release() // grants the parked waiter
	if err := <-queuedErr; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	s.release()
}

// TestCancelWhileQueued: context cancellation removes the waiter and
// returns the context's error.
func TestCancelWhileQueued(t *testing.T) {
	s := New(nil, Config{MaxInflight: 1, QueueTimeout: time.Minute})
	if err := s.admit(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- s.admit(ctx) }()
	for i := 0; ; i++ {
		if _, q := s.Stats(); q == 1 {
			break
		}
		if i > 1000 {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, q := s.Stats(); q != 0 {
		t.Fatalf("queued = %d after cancellation, want 0", q)
	}
	s.release()
}

// TestFIFO: slots are granted to waiters in arrival order.
func TestFIFO(t *testing.T) {
	s := New(nil, Config{MaxInflight: 1, QueueTimeout: time.Minute})
	if err := s.admit(context.Background()); err != nil {
		t.Fatal(err)
	}
	const waiters = 5
	var mu sync.Mutex
	var order []int
	done := make(chan struct{})
	for i := 0; i < waiters; i++ {
		i := i
		// Park waiters one at a time so queue order matches i.
		go func() {
			if err := s.admit(context.Background()); err != nil {
				t.Error(err)
			}
			mu.Lock()
			order = append(order, i)
			if len(order) == waiters {
				close(done)
			}
			mu.Unlock()
			s.release()
		}()
		for {
			if _, q := s.Stats(); q == i+1 {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	s.release() // start the cascade
	<-done
	for i, got := range order {
		if got != i {
			t.Fatalf("grant order %v, want FIFO", order)
		}
	}
}

// TestConcurrentQueries drives real queries through the front end and
// checks the in-flight bound holds while all queries succeed.
func TestConcurrentQueries(t *testing.T) {
	c := testCluster(t)
	defer c.Close()
	const maxInflight = 3
	s := New(c, Config{MaxInflight: maxInflight, QueueTimeout: time.Minute})

	want, err := c.Run(sse.Queries["SSE-Q7"])
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var peak atomic32
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.Query(context.Background(), sse.Queries["SSE-Q7"])
			if err != nil {
				t.Errorf("query: %v", err)
				return
			}
			inflight, _ := s.Stats()
			peak.max(int32(inflight))
			if res.NumRows() != want.NumRows() {
				t.Errorf("rows = %d, want %d", res.NumRows(), want.NumRows())
			}
		}()
	}
	wg.Wait()
	if p := peak.load(); p > maxInflight {
		t.Fatalf("observed %d in-flight queries, bound is %d", p, maxInflight)
	}
	if inflight, queued := s.Stats(); inflight != 0 || queued != 0 {
		t.Fatalf("after drain: inflight=%d queued=%d", inflight, queued)
	}
}

// TestQueryAfterClose: the front end surfaces the cluster's typed
// ErrClosed.
func TestQueryAfterClose(t *testing.T) {
	c := testCluster(t)
	s := New(c, Config{})
	c.Close()
	_, err := s.Query(context.Background(), sse.Queries["SSE-Q7"])
	if !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("err = %v, want engine.ErrClosed", err)
	}
}

// atomic32 is a tiny max-tracking atomic for the in-flight probe.
type atomic32 struct {
	mu sync.Mutex
	v  int32
}

func (a *atomic32) max(v int32) {
	a.mu.Lock()
	if v > a.v {
		a.v = v
	}
	a.mu.Unlock()
}

func (a *atomic32) load() int32 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.v
}

// TestMemoryBudgetRetry: queries refused by memory admission retry
// behind the scenes and complete once resident queries release their
// reservations, instead of surfacing transient ErrMemoryBudget — and
// the herd, squeezed through the budget by spilling, returns what an
// unconstrained cluster returns.
func TestMemoryBudgetRetry(t *testing.T) {
	const rows = 20000
	build := func(budget int64) *engine.Cluster {
		cat := catalog.New(2)
		sse.RegisterTables(cat, rows)
		c := engine.NewCluster(engine.Config{
			Nodes: 2, CoresPerNode: 2, Mode: engine.EP, BlockSize: 4096,
			MemoryPerNode: budget, SpillDir: t.TempDir(),
		}, cat)
		if err := sse.Load(c, sse.GenConfig{Rows: rows, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		return c
	}
	// One line per row, sorted, floats to six digits: neither group-by
	// output order nor summation order is fixed.
	sorted := func(res *engine.Result) string {
		var lines []string
		for _, row := range res.Rows() {
			var sb strings.Builder
			for _, v := range row {
				if v.Kind == types.Float64 && !v.Null {
					fmt.Fprintf(&sb, "%.6g,", v.F)
				} else {
					sb.WriteString(v.String() + ",")
				}
			}
			lines = append(lines, sb.String())
		}
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	q := `SELECT order_no, sum(entry_volume) FROM Securities GROUP BY order_no`
	free, err := build(0).Exec(context.Background(), engine.Request{SQL: q})
	if err != nil {
		t.Fatal(err)
	}
	want := sorted(free)

	s := New(build(1<<20), Config{MaxInflight: 6, QueueTimeout: 5 * time.Second})
	var wg sync.WaitGroup
	errs := make([]error, 6)
	got := make([]*engine.Result, 6)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = s.Query(context.Background(), q)
		}(i)
	}
	wg.Wait()
	var spills int64
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if sorted(got[i]) != want {
			t.Errorf("query %d: %d rows differ from the unconstrained run's %d", i, got[i].NumRows(), free.NumRows())
		}
		spills += got[i].Scope.Counter(telemetry.CtrSpillEvents).Load()
	}
	if spills == 0 {
		t.Error("no query spilled: the budget did not bind")
	}
}

// TestMemoryRefusalOutlastsQueueTimeoutWhileQueriesFinish pins what the
// refusal clock measures: a refused query keeps retrying for as long as
// other queries of the server keep finishing — several QueueTimeouts
// here — and gives up only once QueueTimeout passes with none finishing.
// Every attempt below contains a finished query, so the outcome does not
// depend on how fast the host is; measured from admission (the parent's
// behaviour, and TestMemoryBudgetRetry's flake on a loaded host) the
// query fails after the first QueueTimeout instead.
func TestMemoryRefusalOutlastsQueueTimeoutWhileQueriesFinish(t *testing.T) {
	const timeout = 40 * time.Millisecond
	s := New(nil, Config{MaxInflight: 2, QueueTimeout: timeout})
	ctx := context.Background()
	refused := engine.ErrMemoryBudget
	other := func(context.Context) (*engine.Result, error) { return nil, nil }

	const busy = 10 // attempts during which another query finishes
	attempts := 0
	start := time.Now()
	var drained time.Duration
	_, err := s.serve(ctx, func(ctx context.Context) (*engine.Result, error) {
		attempts++
		if attempts <= busy {
			if _, err := s.serve(ctx, other); err != nil {
				t.Errorf("resident query: %v", err)
			}
			time.Sleep(timeout / 2)
			drained = time.Since(start)
		}
		return nil, refused
	})
	if !errors.Is(err, engine.ErrMemoryBudget) {
		t.Fatalf("err = %v, want the refusal once nothing finishes any more", err)
	}
	if attempts <= busy {
		t.Fatalf("gave up after %d attempts (%v) while queries were still finishing", attempts, time.Since(start))
	}
	if drained < 3*timeout {
		t.Fatalf("busy phase lasted %v, want it to outlast several timeouts of %v", drained, timeout)
	}
	if stalled := time.Since(start) - drained; stalled < timeout {
		t.Fatalf("gave up %v after the last query finished, want >= %v", stalled, timeout)
	}
}

// TestGrantTimeoutRace stresses the narrow window where release()
// grants a waiter's slot at the same moment its queue timeout (or
// context cancellation) fires. Whichever side wins, the accounting must
// balance: a granted waiter owns a slot and must release it, an
// abandoned waiter must not. Run under -race, the test also checks the
// waiter.granted handshake itself.
func TestGrantTimeoutRace(t *testing.T) {
	s := New(nil, Config{MaxInflight: 1, MaxQueue: 256, QueueTimeout: time.Millisecond})

	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// A third of the waiters race cancellation against the
				// grant instead of the timeout.
				ctx := context.Background()
				if w%3 == 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, time.Duration(i%3)*time.Millisecond)
					defer cancel()
				}
				err := s.admit(ctx)
				switch {
				case err == nil:
					// Slot owned: hold it across a scheduling point so
					// grants land while other waiters are timing out.
					runtime.Gosched()
					s.release()
				case errors.Is(err, ErrAdmissionTimeout),
					errors.Is(err, context.DeadlineExceeded),
					errors.Is(err, context.Canceled),
					errors.Is(err, ErrQueueFull):
					// Abandoned: no slot to return.
				default:
					t.Errorf("unexpected admit error: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()

	if inflight, queued := s.Stats(); inflight != 0 || queued != 0 {
		t.Fatalf("after drain: inflight=%d queued=%d, want 0/0 — a grant or abandon leaked a slot", inflight, queued)
	}
	// The server still serves: a fresh admit gets the slot immediately.
	if err := s.admit(context.Background()); err != nil {
		t.Fatalf("admit after stress: %v", err)
	}
	s.release()
}
