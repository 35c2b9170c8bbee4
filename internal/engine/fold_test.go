package engine_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/tpch"
)

// TestAnalyzeFoldedAggregation runs Q1 under EXPLAIN ANALYZE. Its
// partial aggregation reads the filter's selection over the scan and
// folds the pruning projection under it, so neither the filter's gather
// nor the projection's copy runs — and the analysis must still tell the
// truth about them: the scan-filter line counts the rows that pass the
// predicate (what a plain count of them returns), and the projection,
// which ran no iterator and has no counters, prints as folded rather
// than as an operator that saw nothing.
func TestAnalyzeFoldedAggregation(t *testing.T) {
	const sf = 0.01
	cat := catalog.New(3)
	tpch.RegisterTables(cat, sf)
	c := engine.NewCluster(engine.Config{Nodes: 3, CoresPerNode: 2}, cat)
	t.Cleanup(c.Close)
	if err := tpch.Load(c, sf, 1); err != nil {
		t.Fatal(err)
	}
	cnt, err := c.Run("SELECT count(*) FROM lineitem WHERE l_shipdate <= date '1998-12-01' - interval '90' day")
	if err != nil {
		t.Fatal(err)
	}
	passing := cnt.Rows()[0][0].I
	plain, err := c.Run(tpch.Queries["Q1"])
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec(context.Background(), engine.Request{SQL: tpch.Queries["Q1"], Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Rows(), plain.Rows(); len(got) != len(want) {
		t.Fatalf("analyzed Q1 returned %d rows, the plain run %d", len(got), len(want))
	}
	an := res.Analysis
	var scan, proj plan.PhysOp
	for _, s := range an.Plan.Segments {
		plan.Walk(s.Root, func(op plan.PhysOp) {
			agg, ok := op.(*plan.PHashAgg)
			if !ok || !agg.Partial {
				return
			}
			p, ok := agg.Child.(*plan.PProject)
			if !ok {
				t.Fatalf("Q1's partial aggregation reads %s, not the pruning projection", plan.OpLabel(agg.Child))
			}
			proj, scan = p, p.Child
		})
	}
	if scan == nil {
		t.Fatal("Q1 has no partial aggregation")
	}
	if rows, _, _ := an.OpStats(scan); rows != passing {
		t.Errorf("the scan-filter line counts %d rows, %d pass the predicate", rows, passing)
	}
	if rows, blocks, busy := an.OpStats(proj); rows != 0 || blocks != 0 || busy != 0 {
		t.Errorf("the folded projection has counters: %d rows, %d blocks in %v", rows, blocks, busy)
	}
	rendered := an.Render()
	lines := strings.Split(rendered, "\n")
	for i, line := range lines {
		if strings.Contains(line, "scan lineitem filter") {
			if i == 0 || !strings.HasSuffix(lines[i-1], "(folded into the aggregation)") {
				t.Errorf("the line above the scan-filter line is not a folded projection:\n%s", rendered)
			}
			return
		}
	}
	t.Errorf("no scan-filter line:\n%s", rendered)
}
