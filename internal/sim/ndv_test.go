package sim

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/plan"
)

// TestKeyNDVReadsCatalogNDV: the simulator's group count for a one-
// column key is catalog.ColNDV's answer — however the column is
// qualified or cased — and plan.KeyNDV's guess of 1000 when the catalog
// has none; the planner and the engine's admission estimate read the
// same rule.
func TestKeyNDVReadsCatalogNDV(t *testing.T) {
	cat := catalog.New(2)
	cat.MustAdd(&catalog.Table{Name: "trades", Stats: catalog.TableStats{
		Cols: map[string]catalog.ColStats{"acct_id": {NDV: 4_200_000}, "sec_code": {NDV: 1000}},
	}})
	c := &compiler{cat: cat, nodes: 2}
	for _, tc := range []struct {
		name string
		want int64
	}{
		{"trades.sec_code", 1000}, // qualified
		{"sec_code", 1000},        // bare
		{"T.SEC_Code", 1000},      // other case
		{"acct_id", 4_200_000},
		{"no_such_col", 1000}, // unknown: plan.KeyNDV's guess
	} {
		if ndv, ok := cat.ColNDV(tc.name); ok && ndv != tc.want {
			t.Fatalf("catalog.ColNDV(%q) = %d, test table expects %d", tc.name, ndv, tc.want)
		}
		agg := &plan.PHashAgg{Keys: []expr.Expr{expr.NewCol(0, tc.name)}}
		if got := c.groupEstimate(agg, 1e9); got != float64(tc.want) {
			t.Errorf("groupEstimate(%s) = %g, want %d", tc.name, got, tc.want)
		}
	}
}
