package plan

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/types"
)

// TestGroupEstimateReadsCatalogNDV pins the one rule for key NDVs and
// group counts, which the planner's choices, admission and the
// simulator all read. A column's NDV is catalog.ColNDV's answer however
// the column is qualified or cased, and known; everything else is a
// guess. A group count is the product of its keys' NDVs, known only
// when every key is, not capped by the input (the aggregation's rows
// are), and saturating instead of overflowing.
func TestGroupEstimateReadsCatalogNDV(t *testing.T) {
	cat := catalog.New(2)
	cat.MustAdd(&catalog.Table{Name: "trades", Stats: catalog.TableStats{Rows: 40_000_000,
		Cols: map[string]catalog.ColStats{"acct_id": {NDV: 4_200_000}, "sec_code": {NDV: 1000}},
	}})
	day := expr.NewCol(0, "trades.trade_date")
	for _, tc := range []struct {
		name  string
		key   expr.Expr
		want  int64
		known bool
	}{
		{"qualified", expr.NewCol(0, "trades.sec_code"), 1000, true},
		{"bare", expr.NewCol(0, "sec_code"), 1000, true},
		{"other case", expr.NewCol(0, "T.SEC_Code"), 1000, true},
		{"acct_id", expr.NewCol(0, "acct_id"), 4_200_000, true},
		{"uncatalogued column", expr.NewCol(0, "no_such_col"), 1000, false},
		{"extract year", expr.NewExtract(expr.Year, day), 7, false},
		{"extract month", expr.NewExtract(expr.Month, day), 12, false},
		{"other expression", expr.NewArith(expr.Add, day, expr.NewConst(types.IntVal(1))), 100, false},
		{"parameter", expr.NewParam(1), 100, false},
	} {
		if got, known := KeyNDV(cat, tc.key); got != tc.want || known != tc.known {
			t.Errorf("KeyNDV(%s) = %d, known %v; want %d, known %v", tc.name, got, known, tc.want, tc.known)
		}
	}

	b := &binder{cat: cat}
	scan := b.estimated(&LScan{Table: &catalog.Table{Name: "trades", Stats: catalog.TableStats{Rows: 40_000_000}}})
	col := func(name string) expr.Expr { return expr.NewCol(0, name) }
	for _, tc := range []struct {
		name string
		keys []expr.Expr
		want Est
	}{
		{"scalar", nil, Est{Rows: 1, Groups: 1, Known: true}},
		{"one column", []expr.Expr{col("sec_code")}, Est{Rows: 1000, Groups: 1000, Known: true}},
		{"product above the input", []expr.Expr{col("sec_code"), col("acct_id")},
			Est{Rows: 40_000_000, Groups: 4_200_000_000, Known: true}},
		{"one key guessed", []expr.Expr{col("sec_code"), expr.NewExtract(expr.Year, day)},
			Est{Rows: 7000, Groups: 7000}},
		{"saturates", []expr.Expr{col("acct_id"), col("acct_id"), col("acct_id"), col("acct_id")},
			Est{Rows: 40_000_000, Groups: 1 << 60, Known: true}},
		{"guessed key after saturating", []expr.Expr{col("acct_id"), col("acct_id"), col("acct_id"), col("acct_id"), col("nope")},
			Est{Rows: 40_000_000, Groups: 1 << 60}},
	} {
		agg := b.estimated(&LAgg{Child: scan, Keys: tc.keys})
		if got := agg.Estimate(); got != tc.want {
			t.Errorf("%s: estimate %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
