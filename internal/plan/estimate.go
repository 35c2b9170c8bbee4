package plan

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/expr"
)

// Est is the planner's one cardinality estimate of an operator's output
// (DESIGN.md "One cardinality estimate"). The binder gives every
// logical operator its Est once, from its children's and the catalog,
// when it creates the operator (binder.estimated); lowering copies it
// onto the physical operators it emits. The build-side choice, the
// aggregation's phases and algorithm, admission's memory prepayment and
// EXPLAIN all read these values, and the simulator reads KeyNDV.
type Est struct {
	// Rows is the estimated cluster-total output row count.
	Rows int64
	// Groups is an aggregation's estimated group count: the product of
	// its keys' NDVs (KeyNDV), not capped by its input; 1 for a scalar
	// aggregate, 0 on every other operator.
	Groups int64
	// Known reports that every group key is a catalogued column, so
	// Groups rests on no guess (a scalar aggregate's is known).
	Known bool
}

// Estimate returns the estimate. Every Logical and PhysOp embeds an Est.
func (e Est) Estimate() Est { return e }

// estimated computes l's estimate by the rule, from its children's,
// which are set already, and stores it on l. The switch is closed over
// the Logical operators: a new one must say what it does to its input's
// row count, because a silent "very large" default is how every
// column-pruned input (an LProject over its scan) once tied with every
// other and the smaller join side was never chosen.
func (b *binder) estimated(l Logical) Logical {
	switch n := l.(type) {
	case *LScan:
		n.Est = Est{Rows: n.Table.Stats.Rows}
		if n.Pred != nil {
			n.Rows /= 3 // a pushed-down filter keeps a third
		}
	case *LFilter:
		n.Est = Est{Rows: n.Child.Estimate().Rows / 3}
	case *LJoin:
		// Key/foreign-key: each probe row finds its one build row.
		n.Est = Est{Rows: n.Right.Estimate().Rows}
	case *derived:
		n.Est = Est{Rows: n.child.Estimate().Rows}
	case *LAgg:
		n.Est = groupEstimate(b.cat, n.Keys)
		n.Rows = min(n.Groups, n.Child.Estimate().Rows)
	case *LProject:
		n.Est = Est{Rows: n.Child.Estimate().Rows}
	case *LSort:
		n.Est = Est{Rows: n.Child.Estimate().Rows}
	case *LTopN:
		n.Est = Est{Rows: min(n.Child.Estimate().Rows, n.N)}
	case *LLimit:
		n.Est = Est{Rows: min(n.Child.Estimate().Rows, n.N)}
	default:
		panic(fmt.Sprintf("plan: the estimate has no rule for %T", l))
	}
	return l
}

// groupEstimate is an aggregation's estimate by its keys: Groups the
// product of their NDVs, saturating at 2^60, and Known when none was
// guessed.
func groupEstimate(cat *catalog.Catalog, keys []expr.Expr) Est {
	e := Est{Groups: 1, Known: true}
	for _, k := range keys {
		n, known := KeyNDV(cat, k)
		e.Known = e.Known && known
		if e.Groups > (1<<60)/n {
			e.Groups = 1 << 60
		} else {
			e.Groups *= n
		}
	}
	return e
}

// KeyNDV estimates the distinct values of a key expression. A column
// the catalog has an NDV for is known, however it is qualified or
// cased (catalog.ColNDV); anything else is a guess: 1000 for an
// uncatalogued column, 7 for EXTRACT(YEAR …) (TPC-H's seven order
// years), 12 for another EXTRACT, 100 for any other expression.
func KeyNDV(cat *catalog.Catalog, k expr.Expr) (ndv int64, known bool) {
	switch e := k.(type) {
	case *expr.Col:
		if v, ok := cat.ColNDV(e.Name); ok {
			return v, true
		}
		return 1000, false
	case *expr.Extract:
		if e.Part == expr.Year {
			return 7, false
		}
		return 12, false
	}
	return 100, false
}
