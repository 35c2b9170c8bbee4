package plan_test

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/tpch"
	"repro/internal/types"
)

// TestAggAlgorithmOfBenchmarkStatements pins the algorithm the planner
// gives every aggregation of the analytic benchmark statements, on the
// TPC-H catalog at the benchmark's scale factor (0.05). The estimate
// decides: an aggregation expected to fit in one hybrid private table
// (iterator.MaxPrivateGroups) gets hybrid, a larger one shared. S-Q4's
// GROUP BY l_commitdate (2 466 estimated groups) is the case a rule by
// key kind gets wrong; q10's customer keys (millions of estimated
// groups) the one it got wrong the other way.
func TestAggAlgorithmOfBenchmarkStatements(t *testing.T) {
	cat := catalog.New(3)
	tpch.RegisterTables(cat, 0.05)
	cases := []struct {
		name, sql string
		want      []string // per hash agg, in rendering order: partial, then final
	}{
		{"q1", tpch.Queries["Q1"], []string{"hybrid", "hybrid"}},
		{"q6", tpch.Queries["Q6"], []string{"hybrid", "hybrid"}},
		{"sq4", tpch.SyntheticQueries["S-Q4"], []string{"hybrid", "hybrid"}},
		{"likecount", "SELECT count(*) FROM orders WHERE o_comment NOT LIKE '%special%requests%'",
			[]string{"hybrid", "hybrid"}},
		{"jpart", "SELECT p_brand, p_type, sum(l_quantity), sum(l_extendedprice), sum(l_discount) " +
			"FROM lineitem, part WHERE l_partkey = p_partkey GROUP BY p_brand, p_type", []string{"hybrid", "hybrid"}},
		{"jcust", "SELECT c_mktsegment, count(*), sum(o_totalprice) " +
			"FROM orders, customer WHERE o_custkey = c_custkey GROUP BY c_mktsegment", []string{"hybrid", "hybrid"}},
		{"q3", tpch.Queries["Q3"], []string{"shared"}},
		{"q10", tpch.Queries["Q10"], []string{"shared"}},
	}
	for _, tc := range cases {
		checkAggAlgorithms(t, cat, tc.name, tc.sql, tc.want)
	}

	// q3 and q10 repartition their rows and aggregate once: their group
	// estimates (products of key NDVs) are far above the two-phase
	// threshold (100 000 groups). Their rows, capped by the input, are
	// not above it, so a rule that read the capped estimate would split
	// both into partial and final aggregations.
	for _, name := range []string{"Q3", "Q10"} {
		p, err := plan.Compile(tpch.Queries[name], cat)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range p.Segments {
			plan.Walk(s.Root, func(op plan.PhysOp) {
				a, ok := op.(*plan.PHashAgg)
				if !ok {
					return
				}
				if a.Partial {
					t.Errorf("%s aggregates in two phases, want one after a repartition\n%s", name, p)
				}
				if a.Groups <= 100_000 || a.Rows > 100_000 {
					t.Errorf("%s: estimate %+v no longer tells groups (above 100 000) from rows (at most 100 000)", name, a.Est)
				}
			})
		}
	}
}

// TestAggAlgorithmOfUnknownEstimates: a GROUP BY whose estimate rests on
// a guess — a column the catalog has no NDV for, a computed key, an
// alias of one — stays shared however small the guess, whatever the
// key's kind; a scalar aggregate on the same table is still hybrid.
func TestAggAlgorithmOfUnknownEstimates(t *testing.T) {
	cat := catalog.New(3)
	cat.MustAdd(&catalog.Table{Name: "events", PartKey: []int{0}, Schema: types.NewSchema(
		types.Col("id", types.Int64),
		types.Col("kind", types.Int64),
		types.Char("flag", 1),
		types.Col("day", types.Date),
		types.Col("amount", types.Float64),
	)})
	tpch.RegisterTables(cat, 0.05)
	for _, tc := range []struct {
		name, sql string
		want      []string
	}{
		{"int column", "SELECT kind, sum(amount) FROM events GROUP BY kind", []string{"shared", "shared"}},
		{"char column", "SELECT flag, count(*) FROM events GROUP BY flag", []string{"shared", "shared"}},
		{"date column", "SELECT day, count(*) FROM events GROUP BY day", []string{"shared", "shared"}},
		{"computed key", "SELECT CASE WHEN kind > 3 THEN 'hi' ELSE 'lo' END AS k, count(*) FROM events " +
			"GROUP BY CASE WHEN kind > 3 THEN 'hi' ELSE 'lo' END", []string{"shared", "shared"}},
		{"one known, one not", "SELECT flag, l_returnflag, count(*) FROM events, lineitem " +
			"WHERE id = l_orderkey GROUP BY flag, l_returnflag", []string{"shared", "shared"}},
		{"alias (Q8's o_year)", tpch.Queries["Q8"], []string{"shared", "shared"}},
		{"scalar", "SELECT count(*), sum(amount) FROM events", []string{"hybrid", "hybrid"}},
	} {
		checkAggAlgorithms(t, cat, tc.name, tc.sql, tc.want)
	}
}

// checkAggAlgorithms compiles sql against cat and compares the
// algorithms of its hash aggregations, in rendering order, with want.
func checkAggAlgorithms(t *testing.T, cat *catalog.Catalog, name, sql string, want []string) {
	t.Helper()
	p, err := plan.Compile(sql, cat)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var got []string
	for _, s := range p.Segments {
		plan.Walk(s.Root, func(op plan.PhysOp) {
			if a, ok := op.(*plan.PHashAgg); ok {
				got = append(got, a.Algo.String())
			}
		})
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("%s: aggregations are %v, want %v\n%s", name, got, want, p)
	}
}
