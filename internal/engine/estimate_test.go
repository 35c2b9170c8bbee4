package engine

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/plan"
)

// TestAdmissionGroupsReadCatalogNDV: the admission estimate's group
// count for a column key is catalog.ColNDV's answer — however the key
// is qualified or cased (the lookup was exact-case before) — and a
// quarter of the input when the catalog has none; the planner and the
// simulator pin the same table.
func TestAdmissionGroupsReadCatalogNDV(t *testing.T) {
	const rows = 40_000_000
	cat := catalog.New(2)
	tbl := &catalog.Table{Name: "trades", Stats: catalog.TableStats{Rows: rows,
		Cols: map[string]catalog.ColStats{"acct_id": {NDV: 4_200_000}, "sec_code": {NDV: 1000}},
	}}
	cat.MustAdd(tbl)
	es := &memEstimator{c: &Cluster{cat: cat}}
	for _, tc := range []struct {
		name string
		want int64
	}{
		{"trades.sec_code", 1000}, // qualified
		{"sec_code", 1000},        // bare
		{"T.SEC_Code", 1000},      // other case
		{"acct_id", 4_200_000},
		{"no_such_col", rows / 4}, // unknown: the estimator's guess
	} {
		if ndv, ok := cat.ColNDV(tc.name); ok && ndv != tc.want {
			t.Fatalf("catalog.ColNDV(%q) = %d, test table expects %d", tc.name, ndv, tc.want)
		}
		agg := &plan.PHashAgg{Child: &plan.PScan{Table: tbl}, KeyNames: []string{tc.name}}
		if got := es.groups(agg); got != tc.want {
			t.Errorf("groups(%s) = %d, want %d", tc.name, got, tc.want)
		}
	}
}
