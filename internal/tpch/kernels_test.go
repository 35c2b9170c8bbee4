package tpch

import (
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/plan/plantest"
)

// TestRowExecEquivalence holds the batch kernels of every TPC-H and
// synthetic query's plan to row-at-a-time evaluation: each predicate,
// value and key list the plan hands to an iterator runs through its
// kernel and through Expr.Eval row by row over seeded random blocks,
// and the two must agree (plantest.CheckKernels).
func TestRowExecEquivalence(t *testing.T) {
	cat := catalog.New(3)
	RegisterTables(cat, 0.01)
	all := map[string]string{}
	var ids []string
	for _, m := range []map[string]string{Queries, SyntheticQueries} {
		for id, q := range m {
			all[id] = q
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	counts := map[string]int{}
	for _, id := range ids {
		p, err := plan.Compile(all[id], cat)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, err := range plantest.CheckKernels(p, counts) {
			t.Errorf("%s: %v", id, err)
		}
	}
	t.Logf("expressions checked per role: %v", counts)
}
