package engine_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/tpch"
)

// medianQErrorTPCH is the median per-operator q-error of the TPC-H
// suite at SF 0.01 on three nodes, as measured when the planner's one
// estimate (plan.Est) was introduced. A change to the rule may lower
// it; raising it needs a reason and a new pin.
const medianQErrorTPCH = 2.16

// TestEstimateQError runs every TPC-H query under EXPLAIN ANALYZE and
// compares each operator's estimated rows (plan.Est, what EXPLAIN
// prints as est=) with the rows it produced: the q-error
// max(est/act, act/est), with both floored at one row. Its median over
// all operators of the suite is pinned, so a later change to the
// estimate cannot make it worse silently.
func TestEstimateQError(t *testing.T) {
	const sf = 0.01
	cat := catalog.New(3)
	tpch.RegisterTables(cat, sf)
	c := engine.NewCluster(engine.Config{Nodes: 3, CoresPerNode: 2}, cat)
	t.Cleanup(c.Close)
	if err := tpch.Load(c, sf, 1); err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, len(tpch.Queries))
	for id := range tpch.Queries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var qs []float64
	var table strings.Builder
	for _, id := range ids {
		res, err := c.Exec(context.Background(), engine.Request{SQL: tpch.Queries[id], Analyze: true})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		an := res.Analysis
		for _, s := range an.Plan.Segments {
			plan.Walk(s.Root, func(op plan.PhysOp) {
				act, _, _ := an.OpStats(op)
				q := qError(op.Estimate().Rows, act)
				qs = append(qs, q)
				fmt.Fprintf(&table, "%s %-24s est=%d act=%d q=%.1f\n", id, plan.OpLabel(op), op.Estimate().Rows, act, q)
			})
		}
	}
	sort.Float64s(qs)
	med := qs[len(qs)/2]
	if len(qs)%2 == 0 {
		med = (qs[len(qs)/2-1] + qs[len(qs)/2]) / 2
	}
	t.Logf("median q-error %.3f over %d operators of %d queries", med, len(qs), len(ids))
	if med > medianQErrorTPCH {
		t.Errorf("median q-error %.3f, pinned at %.3f; per operator:\n%s", med, medianQErrorTPCH, table.String())
	}
}

// qError is max(est/act, act/est), each floored at one row.
func qError(est, act int64) float64 {
	e, a := float64(max(est, 1)), float64(max(act, 1))
	return max(e/a, a/e)
}
