package sse

import (
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/plan/plantest"
)

// TestRowExecEquivalence holds the batch kernels of every SSE query's
// plan to row-at-a-time evaluation: each predicate, value and key list
// the plan hands to an iterator runs through its kernel and through
// Expr.Eval row by row over seeded random blocks, and the two must
// agree (plantest.CheckKernels).
func TestRowExecEquivalence(t *testing.T) {
	cat := catalog.New(3)
	RegisterTables(cat, 1000)
	ids := make([]string, 0, len(Queries))
	for id := range Queries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	counts := map[string]int{}
	for _, id := range ids {
		p, err := plan.Compile(Queries[id], cat)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, err := range plantest.CheckKernels(p, counts) {
			t.Errorf("%s: %v", id, err)
		}
	}
	t.Logf("expressions checked per role: %v", counts)
}
