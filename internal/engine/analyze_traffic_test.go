package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// TestAnalyzeExchangeTrafficOneSource pins where EXPLAIN ANALYZE learns
// exchange traffic: the ex.<id>.* counters the fabric's accounting shim
// writes beside net.bytes, on every substrate. The run's BlockSent
// events — captured by sinks of the test's own, on every process — are
// the independent witness: for each exchange the analysis must report
// exactly their sums, the exchanges together must account for all of
// net.bytes, and on a distributed run the per-node shares must add up
// to the totals.
func TestAnalyzeExchangeTrafficOneSource(t *testing.T) {
	const q = `SELECT t.acct_id a, sum(t.trade_volume)
		FROM trades t JOIN securities s ON t.acct_id = s.acct_id
		GROUP BY t.acct_id`

	// run executes q analyzed and returns the analysis plus the BlockSent
	// events of every process that took part.
	substrates := []struct {
		name string
		run  func(t *testing.T) (*Analysis, []telemetry.Event)
	}{
		{"NewCluster", func(t *testing.T) (*Analysis, []telemetry.Event) {
			c, _ := buildTestCluster(t, EP, 2)
			defer c.Close()
			return analyzeWithSent(t, c, Request{SQL: q, Analyze: true})
		}},
		{"NewClusterTCP", func(t *testing.T) (*Analysis, []telemetry.Event) {
			c := buildTestClusterTCP(t, EP, 2)
			defer c.Close()
			return analyzeWithSent(t, c, Request{SQL: q, Analyze: true})
		}},
		{"NewClusterDist", func(t *testing.T) (*Analysis, []telemetry.Event) {
			cfg := Config{CoresPerNode: 2, BlockSize: 2048, ExchangeBuffer: 8}
			clusters := []*Cluster{buildDistCluster(t, 0, 2, cfg), buildDistCluster(t, 1, 2, cfg)}
			defer clusters[0].Close()
			defer clusters[1].Close()
			meshDist(clusters)
			spec := ExecSpec{
				QID: clusters[0].NextQueryID(), SQL: q,
				Coordinator: 0, DataNodes: []int{0, 1}, Analyze: true,
			}
			var wg sync.WaitGroup
			var partSent []telemetry.Event
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc, sink := sentScope("participant")
				pres, err := clusters[1].Exec(context.Background(), Request{Dist: &spec, Scope: sc})
				if err != nil {
					t.Errorf("participant: %v", err)
					return
				}
				partSent = sink.Events()
				if !clusters[0].DeliverStats(spec.QID, pres.Snapshot) {
					t.Errorf("snapshot delivery refused")
				}
			}()
			an, sent := analyzeWithSent(t, clusters[0], Request{Dist: &spec})
			wg.Wait()
			if len(an.PerNode()) != 2 {
				t.Fatalf("per-node snapshots from %d nodes, want 2", len(an.PerNode()))
			}
			return an, append(sent, partSent...)
		}},
	}

	for _, sub := range substrates {
		t.Run(sub.name, func(t *testing.T) {
			an, sent := sub.run(t)

			type traffic struct{ rows, blocks, bytes int64 }
			witnessed := map[int]traffic{}
			for _, ev := range sent {
				bs := ev.Rec.(telemetry.BlockSent)
				w := witnessed[bs.Exchange]
				w.rows += int64(bs.Tuples)
				w.blocks++
				w.bytes += int64(bs.Bytes)
				witnessed[bs.Exchange] = w
			}
			if len(witnessed) == 0 {
				t.Fatal("no cross-node BlockSent events: the query does not exercise the exchanges")
			}

			exchanges := []int{an.resultEx}
			for _, ex := range an.Plan.Exchanges {
				exchanges = append(exchanges, ex.ID)
			}
			var allBytes int64
			for _, ex := range exchanges {
				rows, blocks, bytes := an.ExchangeStats(ex)
				if got, want := (traffic{rows, blocks, bytes}), witnessed[ex]; got != want {
					t.Errorf("exchange %d: analysis reports %+v, BlockSent events sum to %+v", ex, got, want)
				}
				delete(witnessed, ex)
				allBytes += bytes

				if an.PerNode() == nil {
					continue
				}
				var share traffic
				for _, snap := range an.PerNode() {
					share.rows += snap.Counter(fmt.Sprintf("ex.%d.rows", ex))
					share.blocks += snap.Counter(fmt.Sprintf("ex.%d.blocks", ex))
					share.bytes += snap.Counter(fmt.Sprintf("ex.%d.bytes", ex))
				}
				if total := (traffic{rows, blocks, bytes}); share != total {
					t.Errorf("exchange %d: per-node shares sum to %+v, total is %+v", ex, share, total)
				}
			}
			for ex, w := range witnessed {
				t.Errorf("exchange %d carried %+v but is no exchange of the analyzed plan", ex, w)
			}
			if net := an.Scope.Counter(telemetry.CtrNetBytes).Load(); allBytes != net {
				t.Errorf("exchange bytes sum to %d, net.bytes is %d", allBytes, net)
			}
		})
	}
}

// sentScope returns a scope with a sink retaining its BlockSent events.
func sentScope(name string) (*telemetry.Scope, *telemetry.MemSink) {
	sc := telemetry.NewScope(name)
	sink := telemetry.NewMemSink(telemetry.KindBlockSent)
	sc.Attach(sink)
	return sc, sink
}

// analyzeWithSent runs an analyzed request under a scope of the test's
// own and returns the analysis with the BlockSent events this process
// emitted.
func analyzeWithSent(t *testing.T, c *Cluster, r Request) (*Analysis, []telemetry.Event) {
	t.Helper()
	sc, sink := sentScope("traffic")
	r.Scope = sc
	res, err := c.Exec(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	return res.Analysis, sink.Events()
}
