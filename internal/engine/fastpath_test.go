package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/telemetry"
	"repro/internal/types"
)

// fastFixture loads one deterministic trades table into a cluster
// with the given FastPath setting.
func fastFixture(t *testing.T, fast bool) *Cluster {
	return buildFixture(t, Config{Nodes: 3, CoresPerNode: 2, FastPath: fast})
}

// buildFixture is fastFixture under a caller-chosen Config.
func buildFixture(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	cat := catalog.New(cfg.Nodes)
	trades := types.NewSchema(
		types.Col("acct_id", types.Int64),
		types.Col("sec_code", types.Int64),
		types.Col("trade_volume", types.Float64),
	)
	cat.MustAdd(&catalog.Table{Name: "trades", Schema: trades, PartKey: []int{1}})
	c := NewCluster(cfg, cat)
	tl, err := c.NewTableLoader("trades")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 900; i++ {
		r := tl.Row()
		types.PutValue(r, trades, 0, types.IntVal(int64(i%37)))
		types.PutValue(r, trades, 1, types.IntVal(int64(i%11)))
		types.PutValue(r, trades, 2, types.FloatVal(float64(i%101)))
		tl.Add()
	}
	tl.Close()
	return c
}

// fingerprint renders a result order-insensitively.
func fpFingerprint(r *Result) string {
	rows := make([]string, 0, r.NumRows())
	for _, vals := range r.Rows() {
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = v.String()
		}
		rows = append(rows, strings.Join(parts, "|"))
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// TestFastPathMatchesFullExecutor diffs the serial fast path against
// the parallel dataflow across the operator shapes the fast path
// admits: scalar aggregates, group-by, filter+project, top-N, limit,
// and sort.
func TestFastPathMatchesFullExecutor(t *testing.T) {
	reg := telemetry.NewRegistry(false)
	telemetry.SetDefaultRegistry(reg)
	defer telemetry.SetDefaultRegistry(nil)

	fastC := fastFixture(t, true)
	defer fastC.Close()
	fullC := fastFixture(t, false)
	defer fullC.Close()

	// fast marks queries eligible for the serial path. GROUP BY acct_id
	// repartitions (trades is partitioned on sec_code), so those plans
	// must fall back to the parallel executor — and still agree.
	queries := []struct {
		q    string
		fast bool
	}{
		{"SELECT count(*) FROM trades", true},
		{"SELECT count(*), sum(trade_volume) FROM trades WHERE sec_code = 3", true},
		{"SELECT acct_id, sum(trade_volume) AS vol FROM trades GROUP BY acct_id", false},
		{"SELECT acct_id, trade_volume FROM trades WHERE sec_code = 7 AND trade_volume > 50", true},
		{"SELECT acct_id, sum(trade_volume) AS vol FROM trades GROUP BY acct_id ORDER BY vol DESC LIMIT 5", false},
		{"SELECT sec_code, min(trade_volume), max(trade_volume) FROM trades WHERE acct_id < 10 GROUP BY sec_code", true},
	}
	for _, tc := range queries {
		before := reg.Counter(telemetry.CtrFastPathQueries).Load()
		fastRes, err := fastC.Run(tc.q)
		if err != nil {
			t.Fatalf("%s: fast: %v", tc.q, err)
		}
		took := reg.Counter(telemetry.CtrFastPathQueries).Load() > before
		if took != tc.fast {
			t.Errorf("%s: fast path taken=%v, want %v", tc.q, took, tc.fast)
		}
		fullRes, err := fullC.Run(tc.q)
		if err != nil {
			t.Fatalf("%s: full: %v", tc.q, err)
		}
		if ff, pf := fpFingerprint(fastRes), fpFingerprint(fullRes); ff != pf {
			t.Errorf("%s: fast/full results differ:\nfast:\n%s\nfull:\n%s", tc.q, ff, pf)
		}
	}
}

// TestFastPathPreparedMatchesAdHoc checks the acceptance criterion
// directly: a prepared EXECUTE's result is fingerprint-identical to
// the equivalent ad-hoc SQL.
func TestFastPathPreparedMatchesAdHoc(t *testing.T) {
	c := fastFixture(t, true)
	defer c.Close()

	p, _, err := c.CompileCached("SELECT acct_id, trade_volume FROM trades WHERE sec_code = $1")
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range []int64{0, 3, 10} {
		prep, err := c.RunBound(nil, p, []types.Value{types.IntVal(sec)}, "execute")
		if err != nil {
			t.Fatal(err)
		}
		adhoc, err := c.Run(fmt.Sprintf(
			"SELECT acct_id, trade_volume FROM trades WHERE sec_code = %d", sec))
		if err != nil {
			t.Fatal(err)
		}
		if pf, af := fpFingerprint(prep), fpFingerprint(adhoc); pf != af {
			t.Errorf("sec_code=%d: prepared/ad-hoc differ:\n%s\nvs\n%s", sec, pf, af)
		}
	}
}

// TestPlanCacheInvalidationOnCatalogBump is the stale-plan regression
// test: a cached plan must not survive a catalog-version bump.
func TestPlanCacheInvalidationOnCatalogBump(t *testing.T) {
	c := fastFixture(t, false)
	defer c.Close()

	q := "SELECT count(*) FROM trades"
	if _, hit, err := c.CompileCached(q); err != nil || hit {
		t.Fatalf("first compile: hit=%v err=%v, want cold miss", hit, err)
	}
	if _, hit, err := c.CompileCached(q); err != nil || !hit {
		t.Fatalf("second compile: hit=%v err=%v, want hit", hit, err)
	}

	c.cat.BumpVersion()
	if _, hit, err := c.CompileCached(q); err != nil || hit {
		t.Fatalf("post-bump compile: hit=%v err=%v, want recompile", hit, err)
	}
	// The recompiled plan is cached under the new version.
	if _, hit, err := c.CompileCached(q); err != nil || !hit {
		t.Fatalf("post-bump second compile: hit=%v err=%v, want hit", hit, err)
	}
}

// TestExplainAnalyzeCacheAnnotation checks that EXPLAIN ANALYZE
// renders the plan-cache outcome.
func TestExplainAnalyzeCacheAnnotation(t *testing.T) {
	c := fastFixture(t, false)
	defer c.Close()

	q := "SELECT count(*) FROM trades WHERE sec_code = 5"
	_, an, err := analyze(c, q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(an.Render(), "plan-cache=miss") {
		t.Errorf("first analyze should render plan-cache=miss:\n%s", an.Render())
	}
	_, an, err = analyze(c, q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(an.Render(), "plan-cache=hit") {
		t.Errorf("second analyze should render plan-cache=hit:\n%s", an.Render())
	}
}
