package plan

import (
	"testing"

	"repro/internal/sql"
)

// TestGroupEstimateReadsCatalogNDV: the planner's group estimate for a
// column key is catalog.ColNDV's answer — however the column is
// qualified or cased — and 1000 when the catalog has none. The admission
// estimate (engine) and the simulator pin the same table against the
// same method, so the three cannot disagree about a column.
func TestGroupEstimateReadsCatalogNDV(t *testing.T) {
	cat := testCatalog()
	b := &binder{cat: cat}
	for _, tc := range []struct {
		col  sql.ColRef
		want int64
	}{
		{sql.ColRef{Qualifier: "trades", Name: "sec_code"}, 1000}, // qualified
		{sql.ColRef{Name: "sec_code"}, 1000},                      // bare
		{sql.ColRef{Qualifier: "T", Name: "SEC_Code"}, 1000},      // other case
		{sql.ColRef{Name: "acct_id"}, 4_200_000},
		{sql.ColRef{Name: "no_such_col"}, 1000}, // unknown: the planner's guess
	} {
		if ndv, ok := cat.ColNDV(tc.col.Name); ok && ndv != tc.want {
			t.Fatalf("catalog.ColNDV(%q) = %d, test table expects %d", tc.col.Name, ndv, tc.want)
		}
		_, inCat := cat.ColNDV(tc.col.Name)
		if got, known := b.estimateGroups([]sql.Expr{&tc.col}, nil); got != tc.want || known != inCat {
			t.Errorf("estimateGroups(%s) = %d, known %v; want %d, known %v",
				tc.col.String(), got, known, tc.want, inCat)
		}
	}
}
