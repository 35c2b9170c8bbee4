package engine

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
)

// TestOverlappingRuns is the regression test for the fixed
// resultExchangeID collision: two Run calls overlapping on one
// in-process cluster must both return correct results. Before
// exchanges were keyed by (query id, exchange id), the queries' result
// collectors (and every plan exchange) shared ids and crossed streams.
func TestOverlappingRuns(t *testing.T) {
	c := buildFaultCluster(t, faultBaseConfig(EP, 2), false)
	want := make([]string, len(metamorphicQueries))
	for i, q := range metamorphicQueries {
		res, err := c.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fingerprint(res)
	}

	var wg sync.WaitGroup
	for i, q := range metamorphicQueries {
		for rep := 0; rep < 2; rep++ {
			wg.Add(1)
			go func(i int, q string) {
				defer wg.Done()
				res, err := c.Run(q)
				if err != nil {
					t.Errorf("query %d: %v", i, err)
					return
				}
				if got := fingerprint(res); got != want[i] {
					t.Errorf("query %d diverged when overlapping\nwant %.200s\ngot  %.200s",
						i, want[i], got)
				}
			}(i, q)
		}
	}
	wg.Wait()
}

// TestUsedCoresBounded asserts the acceptance criterion: with many
// queries in flight, no node's leased core count ever exceeds
// CoresPerNode — the per-query `% CoresPerNode` wrap used to let
// concurrent queries double-book cores invisibly.
func TestUsedCoresBounded(t *testing.T) {
	cfg := faultBaseConfig(EP, 2)
	c := buildFaultCluster(t, cfg, false)

	stop := make(chan struct{})
	violation := make(chan string, 1)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			for n := 0; n <= cfg.Nodes; n++ {
				if used := c.UsedCores(n); used > cfg.CoresPerNode {
					select {
					case violation <- fmt.Sprintf("node %d: %d leased cores, budget %d", n, used, cfg.CoresPerNode):
					default:
					}
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for rep := 0; rep < 3; rep++ {
		for i, q := range metamorphicQueries {
			wg.Add(1)
			go func(i int, q string) {
				defer wg.Done()
				if _, err := c.Run(q); err != nil {
					t.Errorf("query %d: %v", i, err)
				}
			}(i, q)
		}
	}
	wg.Wait()
	close(stop)
	select {
	case v := <-violation:
		t.Fatalf("core budget exceeded: %s", v)
	default:
	}
	// After the drain every lease must be back in the pool.
	for n := 0; n <= cfg.Nodes; n++ {
		if used := c.UsedCores(n); used != 0 {
			t.Errorf("node %d: %d cores still leased after drain", n, used)
		}
		if over := c.OversubscribedCores(n); over != 0 {
			t.Errorf("node %d: %d oversubscribed workers still accounted after drain", n, over)
		}
	}
}

// TestConcurrentMixedStress is the multi-query stress harness: at least
// 8 queries in flight at once on one cluster, across both fabrics and
// both pipelined modes, plus one seeded fault schedule — every result
// must match its solo run. CI runs this under -race (the test job).
func TestConcurrentMixedStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress mix is slow under -short")
	}
	oracle := noFaultFingerprints(t)

	type variant struct {
		name   string
		mode   Mode
		tcp    bool
		faults string
	}
	variants := []variant{
		{"inproc-EP", EP, false, ""},
		{"inproc-SP", SP, false, ""},
		{"tcp-EP", EP, true, ""},
		{"tcp-SP", SP, true, ""},
		{"inproc-EP-faults", EP, false, "drop=0.02,dup=0.01,seed=11"},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := faultBaseConfig(v.mode, 2)
			if v.faults != "" {
				fc, err := faults.Parse(v.faults)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Faults = faults.New(fc)
				cfg.Retry = &fastFaultRetry
			}
			c := buildFaultCluster(t, cfg, v.tcp)

			// 9 concurrent queries: three instances of each of the three
			// metamorphic shapes (scan/filter, repartitioned agg, join).
			var wg sync.WaitGroup
			for rep := 0; rep < 3; rep++ {
				for i, q := range metamorphicQueries {
					wg.Add(1)
					go func(i int, q string) {
						defer wg.Done()
						res, err := c.Run(q)
						if err != nil {
							t.Errorf("query %d: %v", i, err)
							return
						}
						if got := fingerprint(res); got != oracle[i] {
							t.Errorf("query %d diverged under concurrency (%s)\nwant %.200s\ngot  %.200s",
								i, v.name, oracle[i], got)
						}
					}(i, q)
				}
			}
			wg.Wait()
		})
	}
}

// TestRunAfterClose: Close rejects later queries with the typed error
// instead of racing a torn-down fabric.
func TestRunAfterClose(t *testing.T) {
	c := buildFaultCluster(t, faultBaseConfig(EP, 2), false)
	if _, err := c.Run(metamorphicQueries[0]); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Run(metamorphicQueries[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after Close: err = %v, want ErrClosed", err)
	}
	c.Close() // idempotent
}
