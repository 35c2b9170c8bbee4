package engine

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/faults"
	"repro/internal/network"
	"repro/internal/telemetry"
	"repro/internal/types"
)

// metamorphicQueries is the query set of the fault-equivalence harness:
// scan/filter, repartitioned aggregation, and a distributed join — one
// per exchange topology the fabrics support.
var metamorphicQueries = []string{
	"SELECT count(*) FROM trades WHERE trade_volume < 700",
	"SELECT sec_code, sum(trade_volume), count(*) FROM trades WHERE acct_id < 300 GROUP BY sec_code",
	`SELECT T.sec_code, count(*) FROM trades T, securities S
	 WHERE T.acct_id = S.acct_id AND S.entry_volume < 600 GROUP BY T.sec_code`,
}

// fastFaultRetry keeps fault-path tests quick: injected losses cost
// milliseconds, not the production 25ms base backoff.
var fastFaultRetry = network.RetryPolicy{
	Base: 2 * time.Millisecond, Max: 50 * time.Millisecond,
	Deadline: 60 * time.Second, Jitter: 0.2,
}

// buildFaultCluster builds a cluster with the caller's full Config over
// either fabric, loading the same seed-42 dataset as buildTestCluster so
// result fingerprints are comparable across every cluster in the file.
func buildFaultCluster(t *testing.T, cfg Config, tcp bool) *Cluster {
	t.Helper()
	cat := catalog.New(cfg.Nodes)
	trades := types.NewSchema(
		types.Col("acct_id", types.Int64),
		types.Col("sec_code", types.Int64),
		types.Col("trade_date", types.Date),
		types.Col("trade_volume", types.Float64),
	)
	cat.MustAdd(&catalog.Table{Name: "trades", Schema: trades, PartKey: []int{1}})
	secs := types.NewSchema(
		types.Col("acct_id", types.Int64),
		types.Col("sec_code", types.Int64),
		types.Col("entry_date", types.Date),
		types.Col("entry_volume", types.Float64),
	)
	cat.MustAdd(&catalog.Table{Name: "securities", Schema: secs, PartKey: []int{0}})

	var c *Cluster
	if tcp {
		var err error
		c, err = NewClusterTCP(cfg, cat)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
	} else {
		c = NewCluster(cfg, cat)
	}

	rng := rand.New(rand.NewSource(42))
	day := types.MustParseDate("2010-10-30")
	tl, _ := c.NewTableLoader("trades")
	for i := 0; i < 8000; i++ {
		r := tl.Row()
		types.PutValue(r, trades, 0, types.IntVal(int64(rng.Intn(500))))
		types.PutValue(r, trades, 1, types.IntVal(int64(rng.Intn(50))))
		types.PutValue(r, trades, 2, types.DateVal(day-int64(rng.Intn(5))))
		types.PutValue(r, trades, 3, types.FloatVal(float64(rng.Intn(1000))))
		tl.Add()
	}
	tl.Close()
	sl, _ := c.NewTableLoader("securities")
	for i := 0; i < 2000; i++ {
		r := sl.Row()
		types.PutValue(r, secs, 0, types.IntVal(int64(rng.Intn(500))))
		types.PutValue(r, secs, 1, types.IntVal(int64(rng.Intn(50))))
		types.PutValue(r, secs, 2, types.DateVal(day-int64(rng.Intn(3))))
		types.PutValue(r, secs, 3, types.FloatVal(float64(rng.Intn(1000))))
		sl.Add()
	}
	sl.Close()
	return c
}

// faultBaseConfig is the shared cluster shape of the fault tests.
func faultBaseConfig(mode Mode, nodes int) Config {
	return Config{
		Nodes: nodes, CoresPerNode: 2, Mode: mode,
		BlockSize: 2048, SchedTick: 5 * time.Millisecond, ExchangeBuffer: 8,
	}
}

// noFaultFingerprints runs the metamorphic queries on a clean static
// cluster and returns their canonical results — the oracle every
// faulted run must reproduce exactly.
func noFaultFingerprints(t *testing.T) []string {
	t.Helper()
	c := buildFaultCluster(t, faultBaseConfig(SP, 2), false)
	fps := make([]string, len(metamorphicQueries))
	for i, q := range metamorphicQueries {
		res, err := c.Run(q)
		if err != nil {
			t.Fatalf("baseline query %d: %v", i, err)
		}
		fps[i] = fingerprint(res)
	}
	return fps
}

// TestMetamorphicFaultSchedules is the correctness harness of DESIGN.md
// §9: the same queries under N seeded random fault schedules — frame
// drops, duplicates, corruption, delays and worker crashes, landing at
// schedule-dependent points while EP's scheduler expands and shrinks
// pools — must return results identical to a static no-fault run, on
// both fabrics. The CLAIMS_FAULTS environment variable (set by the CI
// fault matrix) appends an extra schedule.
func TestMetamorphicFaultSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("fault schedules are slow under -short")
	}
	oracle := noFaultFingerprints(t)

	schedules := []faults.Config{
		{Seed: 1, Drop: 0.03, Dup: 0.02, Corrupt: 0.01, Delay: 300 * time.Microsecond, DelayProb: 0.2},
		{Seed: 2, Drop: 0.05, CrashWorker: 0.002},
		{Seed: 3, Dup: 0.1, Corrupt: 0.05, Delay: time.Millisecond, DelayProb: 0.1, CrashWorker: 0.001},
	}
	if spec := os.Getenv("CLAIMS_FAULTS"); spec != "" {
		extra, err := faults.Parse(spec)
		if err != nil {
			t.Fatalf("CLAIMS_FAULTS=%q: %v", spec, err)
		}
		schedules = append(schedules, extra)
	}

	for si, fc := range schedules {
		for _, fabric := range []string{"inproc", "tcp"} {
			t.Run(fmt.Sprintf("schedule%d/seed%d/%s", si, fc.Seed, fabric), func(t *testing.T) {
				cfg := faultBaseConfig(EP, 2)
				cfg.Faults = faults.New(fc)
				cfg.Retry = &fastFaultRetry
				c := buildFaultCluster(t, cfg, fabric == "tcp")
				for qi, q := range metamorphicQueries {
					scope := telemetry.NewScope(fmt.Sprintf("meta-%d-%s-%d", si, fabric, qi))
					res, err := c.Exec(context.Background(), Request{SQL: q, Scope: scope})
					if err != nil {
						t.Fatalf("query %d under %s: %v", qi, fc.String(), err)
					}
					if got := fingerprint(res); got != oracle[qi] {
						t.Errorf("query %d result diverged under schedule %s\nwant %.200s\ngot  %.200s",
							qi, fc.String(), oracle[qi], got)
					}
					if n := scope.Counter(telemetry.CtrNetDupApplied).Load(); n != 0 {
						t.Errorf("query %d: %d duplicate blocks applied", qi, n)
					}
				}
			})
		}
	}
}

// TestAcceptanceDropDelayTCP is the issue's acceptance scenario: TCP
// fabric with drop=0.05,delay=10ms — every metamorphic query completes
// with results identical to the clean run, telemetry shows at least one
// retry, and zero duplicate-applied blocks.
func TestAcceptanceDropDelayTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("10ms injected delays are slow under -short")
	}
	oracle := noFaultFingerprints(t)

	fc, err := faults.Parse("drop=0.05,delay=10ms,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultBaseConfig(SP, 2)
	cfg.Faults = faults.New(fc)
	cfg.Retry = &fastFaultRetry
	c := buildFaultCluster(t, cfg, true)

	// The queries are small — an aggregation ships its few groups as one
	// block, not one per shard — so a round of them sends a few dozen
	// frames and the seeded schedule may drop none: repeat the round
	// until a loss has been retried.
	const rounds = 8
	var retries int64
	for round := 0; round < rounds && retries == 0; round++ {
		for qi, q := range metamorphicQueries {
			scope := telemetry.NewScope(fmt.Sprintf("accept-%d-%d", round, qi))
			res, err := c.Exec(context.Background(), Request{SQL: q, Scope: scope})
			if err != nil {
				t.Fatalf("query %d: %v", qi, err)
			}
			if got := fingerprint(res); got != oracle[qi] {
				t.Errorf("query %d diverged under drop=0.05,delay=10ms", qi)
			}
			if n := scope.Counter(telemetry.CtrNetDupApplied).Load(); n != 0 {
				t.Errorf("query %d: %d duplicate blocks applied", qi, n)
			}
			retries += scope.Counter(telemetry.CtrNetRetries).Load()
		}
	}
	if retries == 0 {
		t.Errorf("5%% frame loss across %d rounds of three queries produced no retries", rounds)
	}
}

// TestWorkerCrashDegradesGracefully kills one worker mid-pipeline —
// between phases (before it processes its first block) and between
// blocks — and checks the query degrades onto re-expanded workers with
// identical results, visible as a Recovery{re-expand} in telemetry.
func TestWorkerCrashDegradesGracefully(t *testing.T) {
	oracle := noFaultFingerprints(t)
	const joinQuery = 2 // the multi-segment pipeline

	cases := []struct {
		name        string
		mode        Mode
		tcp         bool
		afterBlocks int64
	}{
		{"between-phases/ME/inproc", ME, false, 0},
		{"between-blocks/SP/inproc", SP, false, 3},
		{"between-blocks/SP/tcp", SP, true, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inj := faults.New(faults.Config{})
			inj.PlanWorkerCrash("*", tc.afterBlocks)
			cfg := faultBaseConfig(tc.mode, 2)
			cfg.Faults = inj
			cfg.Retry = &fastFaultRetry
			c := buildFaultCluster(t, cfg, tc.tcp)

			scope := telemetry.NewScope("crash-" + tc.name)
			mem := telemetry.NewMemSink(telemetry.KindRecovery, telemetry.KindFaultInjected)
			scope.Attach(mem)
			res, err := c.Exec(context.Background(), Request{SQL: metamorphicQueries[joinQuery], Scope: scope})
			if err != nil {
				t.Fatalf("crashed-worker query: %v", err)
			}
			if got := fingerprint(res); got != oracle[joinQuery] {
				t.Errorf("result diverged after worker crash\nwant %.200s\ngot  %.200s",
					oracle[joinQuery], got)
			}

			var crashed, reexpanded bool
			for _, ev := range mem.Events() {
				switch rec := ev.Rec.(type) {
				case telemetry.FaultInjected:
					if rec.Site == "worker" && rec.Fault == "crash" {
						crashed = true
					}
				case telemetry.Recovery:
					if rec.Action == "re-expand" {
						reexpanded = true
					}
				}
			}
			if !crashed {
				t.Fatal("the planned worker crash never fired")
			}
			if !reexpanded {
				t.Error("no re-expansion recovery recorded")
			}
			if scope.Counter(telemetry.CtrRecoverExpands).Load() == 0 {
				t.Error("recover.expands counter is zero")
			}
		})
	}
}

// TestQueryErrorDoesNotHangOrLeak forces a mid-query link severance: the
// query must return an error (not wedge in the result collector), and
// the TCP cluster must shut down cleanly afterwards — the regression
// test for the read-loop/sender goroutine leak on query error.
func TestQueryErrorDoesNotHangOrLeak(t *testing.T) {
	inj := faults.New(faults.Config{})
	inj.PlanSever(0, 1, 2) // cut the slave 0 → slave 1 link mid-stream
	cfg := faultBaseConfig(SP, 2)
	cfg.Faults = inj
	pol := fastFaultRetry
	pol.MaxAttempts = 3
	pol.Deadline = 5 * time.Second
	cfg.Retry = &pol
	c := buildFaultCluster(t, cfg, true)

	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		// The join repartitions trades by acct_id (the table is stored by
		// sec_code), so blocks must cross the severed 0→1 link.
		res, err := c.Run(metamorphicQueries[2])
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err == nil {
			t.Fatal("query across a severed link reported success")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("query across a severed link hung")
	}
}
