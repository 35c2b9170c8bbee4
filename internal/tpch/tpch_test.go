package tpch

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/types"
)

func loadedCluster(t *testing.T, mode engine.Mode, nodes int, sf float64) *engine.Cluster {
	t.Helper()
	cat := catalog.New(nodes)
	RegisterTables(cat, sf)
	c := engine.NewCluster(engine.Config{
		Nodes:        nodes,
		CoresPerNode: 2,
		Mode:         mode,
		BlockSize:    8 * 1024,
	}, cat)
	if err := Load(c, sf, 1); err != nil {
		t.Fatal(err)
	}
	return c
}

// canonical renders a result order-insensitively.
func canonical(res *engine.Result) string {
	rows := res.Rows()
	lines := make([]string, len(rows))
	for i, row := range rows {
		parts := make([]string, len(row))
		for j, v := range row {
			if v.Kind == types.Float64 && !v.Null {
				parts[j] = fmt.Sprintf("%.6g", v.F)
			} else {
				parts[j] = v.String()
			}
		}
		lines[i] = strings.Join(parts, ",")
	}
	sort.Strings(lines)
	return strings.Join(lines, ";")
}

func TestGeneratorCardinalities(t *testing.T) {
	c := loadedCluster(t, engine.EP, 2, 0.002)
	for tbl, want := range map[string]int64{
		"orders": 3000, "nation": 25, "region": 5,
	} {
		res, err := c.Run("SELECT count(*) FROM " + tbl)
		if err != nil {
			t.Fatalf("%s: %v", tbl, err)
		}
		if got := res.Rows()[0][0].I; got != want {
			t.Errorf("%s rows = %d, want %d", tbl, got, want)
		}
	}
	// Lineitem has 1-7 lines per order.
	res, err := c.Run("SELECT count(*) FROM lineitem")
	if err != nil {
		t.Fatal(err)
	}
	n := res.Rows()[0][0].I
	if n < 3000 || n > 7*3000 {
		t.Errorf("lineitem rows = %d", n)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	c1 := loadedCluster(t, engine.EP, 2, 0.001)
	c2 := loadedCluster(t, engine.EP, 2, 0.001)
	// The rows themselves, not a float sum: that would depend on the
	// order the aggregation's workers add in.
	q := "SELECT * FROM lineitem"
	r1, err := c1.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c2.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.NumRows() == 0 || canonical(r1) != canonical(r2) {
		t.Fatal("same seed produced different data")
	}
}

func TestReferentialIntegrity(t *testing.T) {
	c := loadedCluster(t, engine.EP, 2, 0.002)
	// Every lineitem joins exactly one order.
	rl, err := c.Run("SELECT count(*) FROM lineitem")
	if err != nil {
		t.Fatal(err)
	}
	rj, err := c.Run("SELECT count(*) FROM orders, lineitem WHERE l_orderkey = o_orderkey")
	if err != nil {
		t.Fatal(err)
	}
	if rl.Rows()[0][0].I != rj.Rows()[0][0].I {
		t.Fatalf("lineitem=%d joined=%d", rl.Rows()[0][0].I, rj.Rows()[0][0].I)
	}
}

func TestAllEvaluatedQueriesCompileAndRun(t *testing.T) {
	c := loadedCluster(t, engine.EP, 2, 0.002)
	for _, id := range EvaluatedQueries {
		res, err := c.Run(Queries[id])
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		t.Logf("%s: %d rows in %v", id, res.NumRows(), res.Stats.Duration)
	}
}

func TestSyntheticQueriesRun(t *testing.T) {
	c := loadedCluster(t, engine.EP, 2, 0.002)
	for id, q := range SyntheticQueries {
		res, err := c.Run(q)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if res.NumRows() == 0 && id != "S-Q1" {
			t.Errorf("%s returned no rows", id)
		}
	}
}

func TestQ1AgainstReference(t *testing.T) {
	// Q1 over EP must match a direct single-pass computation.
	c := loadedCluster(t, engine.EP, 3, 0.002)
	res, err := c.Run(Queries["Q1"])
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 4 { // (A,F) (N,F) (N,O) (R,F)
		t.Fatalf("Q1 groups = %d, want 4", res.NumRows())
	}
	// Cross-check one aggregate via an independent simpler query.
	cutoff := types.MustParseDate("1998-12-01") - 90
	_ = cutoff
	chk, err := c.Run(`SELECT sum(l_quantity) FROM lineitem
		WHERE l_shipdate <= date '1998-12-01' - interval '90' day`)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, row := range res.Rows() {
		total += row[2].F // sum_qty
	}
	if want := chk.Rows()[0][0].F; total != want {
		t.Fatalf("Σ sum_qty = %f, want %f", total, want)
	}
}

func TestModesAgreeOnQ3(t *testing.T) {
	var results []int
	var first [][]types.Value
	for _, mode := range []engine.Mode{engine.EP, engine.SP, engine.ME} {
		c := loadedCluster(t, mode, 2, 0.002)
		res, err := c.Run(Queries["Q3"])
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		results = append(results, res.NumRows())
		if first == nil {
			first = res.Rows()
		} else {
			rows := res.Rows()
			for i := range first {
				if first[i][0].I != rows[i][0].I {
					t.Fatalf("mode %v row %d differs: %v vs %v", mode, i, first[i], rows[i])
				}
			}
		}
	}
	if results[0] != results[1] || results[1] != results[2] {
		t.Fatalf("row counts differ across modes: %v", results)
	}
}

func TestQ6AgainstReference(t *testing.T) {
	c := loadedCluster(t, engine.SP, 2, 0.002)
	res, err := c.Run(Queries["Q6"])
	if err != nil {
		t.Fatal(err)
	}
	// Recompute via the engine with the filter split differently.
	chk, err := c.Run(`SELECT sum(l_extendedprice * l_discount) FROM lineitem
		WHERE l_shipdate >= date '1994-01-01' AND l_shipdate < date '1995-01-01'
		AND l_discount >= 0.05 AND l_discount <= 0.07 AND l_quantity < 24`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows()[0][0].F != chk.Rows()[0][0].F {
		t.Fatalf("Q6 = %v, reference = %v", res.Rows()[0][0], chk.Rows()[0][0])
	}
}

// TestDateBoundFiltersVectorized: a date bound written as arithmetic
// over literals (Q1's date - interval day, the date ± interval month of
// Q3/Q4/Q5/Q10/Q12/Q14 shapes) folds where the filter's kernels are
// compiled, so EXPLAIN marks the scan filter [vec] instead of sending
// every lineitem row through Cmp.Eval → Arith.Eval.
func TestDateBoundFiltersVectorized(t *testing.T) {
	c := loadedCluster(t, engine.EP, 2, 0.002)
	for _, q := range []string{
		Queries["Q1"],
		`SELECT count(*) FROM orders WHERE o_orderdate >= date '1993-07-01'
		   AND o_orderdate < date '1993-07-01' + interval '3' month`,
		`SELECT count(*) FROM lineitem WHERE l_shipdate >= date '1994-01-01'
		   AND l_shipdate < date '1994-01-01' + interval '1' year`,
	} {
		p, _, err := c.CompileCached(q)
		if err != nil {
			t.Fatal(err)
		}
		var filter string
		for _, line := range strings.Split(p.String(), "\n") {
			if strings.Contains(line, "scan") && strings.Contains(line, "filter") {
				filter, _, _ = strings.Cut(line, "  (est=")
			}
		}
		if !strings.HasSuffix(filter, "[vec]") {
			t.Errorf("scan filter is not vectorized: %q\n%s", filter, p.String())
		}
	}
}
