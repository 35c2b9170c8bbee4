package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/sse"
	"repro/internal/telemetry"
)

// obsRows sizes the observability-overhead experiment's SSE tables.
const obsRows = 100_000

// obsReps is how many timed repetitions each variant gets; the best
// (minimum) time is compared, which is robust to scheduling noise.
const obsReps = 5

// ObsOverhead measures what the observability plane costs: each
// evaluated SSE query runs plain (no instrumentation) and under
// EXPLAIN ANALYZE (span capture on, per-operator counters, gauges and
// histograms live, per-exchange traffic attribution), and the report
// compares best-of-N latencies. The cluster-wide tracing PR rides on
// the claim that instrumentation is cheap enough to leave on for any
// query worth examining — this experiment is that claim's receipt.
// Latency histograms for both variants close the report with the
// p50/p95/p99 summary lines the serving path prints.
func ObsOverhead() (*Report, error) {
	r := &Report{Title: "Extension: observability overhead (plain vs EXPLAIN ANALYZE)"}

	const nodes, cores = 4, 4
	cat := catalog.New(nodes)
	sse.RegisterTables(cat, obsRows)
	c := engine.NewCluster(engine.Config{
		Nodes: nodes, CoresPerNode: cores, Mode: engine.EP,
	}, cat)
	defer c.Close()
	if err := sse.Load(c, sse.GenConfig{Rows: obsRows, Seed: 1}); err != nil {
		return nil, err
	}

	plainHist := telemetry.NewHistogram(telemetry.LatencyBuckets)
	anHist := telemetry.NewHistogram(telemetry.LatencyBuckets)
	r.addf("%-8s %12s %12s %9s", "query", "plain", "analyzed", "overhead")
	for _, id := range sse.EvaluatedQueries {
		q := sse.Queries[id]
		if _, err := c.Run(q); err != nil { // warm caches and pools
			return nil, fmt.Errorf("%s warmup: %v", id, err)
		}
		best := func(run func() error, h *telemetry.Histogram) (time.Duration, error) {
			var min time.Duration
			for rep := 0; rep < obsReps; rep++ {
				t0 := time.Now()
				if err := run(); err != nil {
					return 0, err
				}
				d := time.Since(t0)
				h.Observe(d.Seconds())
				if min == 0 || d < min {
					min = d
				}
			}
			return min, nil
		}
		plain, err := best(func() error { _, err := c.Run(q); return err }, plainHist)
		if err != nil {
			return nil, fmt.Errorf("%s plain: %v", id, err)
		}
		analyzed, err := best(func() error {
			_, err := c.Exec(context.Background(), engine.Request{SQL: q, Analyze: true})
			return err
		}, anHist)
		if err != nil {
			return nil, fmt.Errorf("%s analyzed: %v", id, err)
		}
		r.addf("%-8s %12v %12v %+8.1f%%", id,
			plain.Round(time.Microsecond), analyzed.Round(time.Microsecond),
			100*(float64(analyzed)-float64(plain))/float64(plain))
	}
	r.addf("plain    %s", plainHist.Snapshot().SummaryLine())
	r.addf("analyzed %s", anHist.Snapshot().SummaryLine())
	r.notef("best of %d runs per variant, %d rows/table, %d nodes x %d cores",
		obsReps, obsRows, nodes, cores)
	return r, nil
}
