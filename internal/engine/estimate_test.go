package engine

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/types"
)

// TestAdmissionGroupsReadCatalogNDV: the group count admission charges
// a hash aggregation for is the planner's estimate, which for a column
// key is catalog.ColNDV's answer — however the key is qualified or
// cased — and plan.KeyNDV's guess when the catalog has none; the
// planner and the simulator read the same rule.
func TestAdmissionGroupsReadCatalogNDV(t *testing.T) {
	const rows = 40_000_000
	cat := catalog.New(2)
	cat.MustAdd(&catalog.Table{Name: "trades", PartKey: []int{1},
		Schema: types.NewSchema(
			types.Col("acct_id", types.Int64),
			types.Col("sec_code", types.Int64),
			types.Col("trade_volume", types.Float64),
		),
		Stats: catalog.TableStats{Rows: rows,
			Cols: map[string]catalog.ColStats{"acct_id": {NDV: 4_200_000}, "sec_code": {NDV: 1000}},
		}})
	for _, tc := range []struct {
		from, key string
		want      int64
	}{
		{"trades", "trades.sec_code", 1000}, // qualified
		{"trades", "sec_code", 1000},        // bare
		{"trades T", "T.SEC_Code", 1000},    // aliased, other case
		{"trades", "acct_id", 4_200_000},
		{"trades", "trade_volume", 1000}, // uncatalogued: plan.KeyNDV's guess
	} {
		if ndv, ok := cat.ColNDV(tc.key); ok && ndv != tc.want {
			t.Fatalf("catalog.ColNDV(%q) = %d, test table expects %d", tc.key, ndv, tc.want)
		}
		p, err := plan.Compile("SELECT count(*) FROM "+tc.from+" GROUP BY "+tc.key, cat)
		if err != nil {
			t.Fatalf("%s: %v", tc.key, err)
		}
		aggs := 0
		for _, seg := range p.Segments {
			plan.Walk(seg.Root, func(op plan.PhysOp) {
				agg, ok := op.(*plan.PHashAgg)
				if !ok {
					return
				}
				aggs++
				if agg.Rows != tc.want {
					t.Errorf("GROUP BY %s: aggregation estimates %d groups, want %d", tc.key, agg.Rows, tc.want)
				}
				per := int64(112 + 56*len(agg.Specs) + 32*len(agg.Keys))
				if got := opBytes(agg); got != tc.want*per {
					t.Errorf("GROUP BY %s: admission charges %d bytes, want %d groups × %d", tc.key, got, tc.want, per)
				}
			})
		}
		if aggs == 0 {
			t.Errorf("GROUP BY %s: no hash aggregation in the plan", tc.key)
		}
	}
}
