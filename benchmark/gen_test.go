package main

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/sql"
)

// testTable is a stand-in for the oracle table, about the size the
// real trades table yields (865 distinct keys of 1000).
func testTable() map[int64]keyAgg {
	t := make(map[int64]keyAgg)
	for k := int64(600000); k < 600865; k++ {
		t[k] = keyAgg{cnt: 1 + k%3, acct: k % 11, time: k % 86400, price: float64(k%100) / 4, vol: float64(k % 977)}
	}
	return t
}

func testGenerator(t *testing.T, w *workload, seed int64) *generator {
	t.Helper()
	if w.tpch {
		return newAnalyticGenerator(w, map[string]check{})
	}
	g, err := newLookupGenerator(w, seed, testTable())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSameSeedSameSequence(t *testing.T) {
	for _, w := range workloads {
		a := testGenerator(t, w, 7).sequenceHash(7, 512)
		b := testGenerator(t, w, 7).sequenceHash(7, 512)
		c := testGenerator(t, w, 8).sequenceHash(8, 512)
		if a != b {
			t.Errorf("%s: seed 7 gave two different statement sequences", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same statement sequence", w.name)
		}
	}
}

func TestAdhocPoolThrashesPlanCache(t *testing.T) {
	c := engine.NewCluster(engine.Config{}, catalog.New(1))
	defer c.Close()
	cacheSize := c.Config().PlanCacheSize
	g := testGenerator(t, workloadByName("adhoc_text"), 1)
	distinct := map[string]bool{}
	for _, s := range g.stmts {
		key, err := sql.Normalize(s.text)
		if err != nil {
			t.Fatal(err)
		}
		distinct[key] = true
	}
	if len(distinct) < 8*cacheSize {
		t.Fatalf("adhoc_text has %d distinct plan-cache keys, want at least 8 x %d", len(distinct), cacheSize)
	}
}

func TestEveryStatementParses(t *testing.T) {
	for _, w := range workloads {
		for _, s := range testGenerator(t, w, 3).stmts {
			if _, err := sql.ParseStatement(s.text); err != nil {
				t.Errorf("%s: %q: %v", w.name, s.text, err)
			}
		}
	}
}

// Every id gets the same number of samples on an analytic workload,
// and two connections never start a rotation on the same statement.
func TestAnalyticRotation(t *testing.T) {
	w := workloadByName("join_repartition_tcp")
	g := testGenerator(t, w, 5)
	a, b := g.stream(5, 0), g.stream(5, 1)
	seen := map[int]int{}
	for i := 0; i < 40; i++ {
		sa, sb := a(), b()
		if sa == sb {
			t.Fatalf("statement %d: both connections run %s", i, w.ids[sa.id])
		}
		seen[sa.id]++
	}
	for id, n := range seen {
		if n != 10 {
			t.Errorf("%s ran %d times in 10 rotations", w.ids[id], n)
		}
	}
}
