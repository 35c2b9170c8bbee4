package sse

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/types"
)

// rowExecCluster mirrors cluster but forces tuple-at-a-time expression
// evaluation, bypassing the vectorized batch kernels.
func rowExecCluster(t *testing.T, mode engine.Mode, cfg GenConfig) *engine.Cluster {
	t.Helper()
	cat := catalog.New(2)
	RegisterTables(cat, int64(cfg.Rows))
	c := engine.NewCluster(engine.Config{
		Nodes: 2, CoresPerNode: 2, Mode: mode, BlockSize: 4096, RowExec: true,
	}, cat)
	if err := Load(c, cfg); err != nil {
		t.Fatal(err)
	}
	return c
}

// canonical renders a result order-insensitively for a failure message.
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

// sameRows reports whether two results hold the same rows in any order:
// every value equal, floats to a relative 1e-9. A parallel aggregation
// adds its partial sums in the order its workers finish, so a sum can
// differ in its last bits between runs, and a fixed rounding such as
// %.6g still flips for a sum that lands on its boundary.
func sameRows(a, b *engine.Result) bool {
	ra, rb := sortedRows(a), sortedRows(b)
	if len(ra) != len(rb) {
		return false
	}
	for i := range ra {
		for j, x := range ra[i] {
			if y := rb[i][j]; isFloat(x) && isFloat(y) {
				if math.Abs(x.F-y.F) > 1e-9*math.Max(math.Abs(x.F), math.Abs(y.F)) {
					return false
				}
			} else if x.String() != y.String() {
				return false
			}
		}
	}
	return true
}

func isFloat(v types.Value) bool { return v.Kind == types.Float64 && !v.Null }

// sortedRows orders a result's rows value by value, floats numerically.
func sortedRows(res *engine.Result) [][]types.Value {
	rows := res.Rows()
	sort.Slice(rows, func(i, j int) bool {
		for k, x := range rows[i] {
			y := rows[j][k]
			if isFloat(x) && isFloat(y) {
				if x.F != y.F {
					return x.F < y.F
				}
			} else if xs, ys := x.String(), y.String(); xs != ys {
				return xs < ys
			}
		}
		return false
	})
	return rows
}

// TestRowExecEquivalence runs the SSE evaluation queries on the default
// vectorized path and on a RowExec cluster over identically generated
// data, and requires identical canonical results.
func TestRowExecEquivalence(t *testing.T) {
	gen := GenConfig{Rows: 20000, Seed: 3}
	vec := cluster(t, engine.EP, gen)
	row := rowExecCluster(t, engine.EP, gen)
	for _, id := range EvaluatedQueries {
		vres, err := vec.Run(Queries[id])
		if err != nil {
			t.Fatalf("%s vectorized: %v", id, err)
		}
		rres, err := row.Run(Queries[id])
		if err != nil {
			t.Fatalf("%s rowexec: %v", id, err)
		}
		if !sameRows(vres, rres) {
			t.Errorf("%s diverged\nvec: %.200s\nrow: %.200s", id, canonical(vres), canonical(rres))
		}
	}
}
