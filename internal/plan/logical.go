// Package plan turns parsed SQL into distributed physical plans: bind
// names against the catalog, build a logical operator tree, then lower
// it into the segment graph of Section 2.1 — pipelines cut at exchange
// boundaries, each segment instantiated on every node that holds data
// for it.
package plan

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/iterator"
	"repro/internal/sql"
	"repro/internal/types"
)

// Logical is a bound logical operator.
type Logical interface {
	Schema() *types.Schema
	// Estimate is the operator's cardinality estimate, set when the
	// binder creates it (estimate.go).
	Estimate() Est
}

// LScan reads one table, with an optional pushed-down predicate.
type LScan struct {
	Table *catalog.Table
	Alias string
	Pred  expr.Expr // may be nil
	sch   *types.Schema
	Est
}

// Schema implements Logical.
func (s *LScan) Schema() *types.Schema { return s.sch }

// LFilter drops rows failing Pred.
type LFilter struct {
	Child Logical
	Pred  expr.Expr
	Est
}

// Schema implements Logical.
func (f *LFilter) Schema() *types.Schema { return f.Child.Schema() }

// LJoin is an equi hash join; Left is the build side.
type LJoin struct {
	Left, Right         Logical
	LeftKeys, RightKeys []expr.Expr
	// LeftKeyCols / RightKeyCols are the qualified column names of the
	// keys when they are plain columns (used for co-partitioning
	// detection); empty strings otherwise.
	LeftKeyCols, RightKeyCols []string
	sch                       *types.Schema
	Est
}

// Schema implements Logical.
func (j *LJoin) Schema() *types.Schema { return j.sch }

// LAgg groups and aggregates.
type LAgg struct {
	Child    Logical
	Keys     []expr.Expr
	KeyNames []string
	KeyCols  []string // qualified names when keys are plain columns
	Specs    []iterator.AggSpec
	sch      *types.Schema
	// Est's Groups and Known decide the aggregation's phases and
	// algorithm (lowerer.lower, chooseAggAlgorithm).
	Est
}

// Schema implements Logical.
func (a *LAgg) Schema() *types.Schema { return a.sch }

// LProject computes the SELECT list.
type LProject struct {
	Child Logical
	Exprs []expr.Expr
	sch   *types.Schema
	Est
}

// Schema implements Logical.
func (p *LProject) Schema() *types.Schema { return p.sch }

// LSort orders the result (no limit).
type LSort struct {
	Child Logical
	Keys  []iterator.SortKey
	Est
}

// Schema implements Logical.
func (s *LSort) Schema() *types.Schema { return s.Child.Schema() }

// LTopN orders and keeps the first N.
type LTopN struct {
	Child Logical
	Keys  []iterator.SortKey
	N     int64
	Est
}

// Schema implements Logical.
func (s *LTopN) Schema() *types.Schema { return s.Child.Schema() }

// LLimit keeps the first N rows.
type LLimit struct {
	Child Logical
	N     int64
	Est
}

// Schema implements Logical.
func (l *LLimit) Schema() *types.Schema { return l.Child.Schema() }

// Build binds stmt against the catalog and returns the logical plan.
func Build(stmt *sql.SelectStmt, cat *catalog.Catalog) (Logical, error) {
	b := &binder{cat: cat}
	return b.buildSelect(stmt)
}

type binder struct {
	cat *catalog.Catalog
}

// qualify prefixes column names with the table alias so multi-table
// schemas stay unambiguous.
func qualify(alias string, sch *types.Schema) *types.Schema {
	cols := make([]types.Column, len(sch.Cols))
	for i, c := range sch.Cols {
		name := c.Name
		if dot := strings.LastIndexByte(name, '.'); dot >= 0 {
			name = name[dot+1:]
		}
		cols[i] = types.Column{Name: alias + "." + name, Kind: c.Kind, Width: c.Width}
	}
	return types.NewSchema(cols...)
}

func (b *binder) buildSelect(stmt *sql.SelectStmt) (Logical, error) {
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("plan: query has no FROM clause")
	}

	// 1. FROM: one scan (or derived plan) per table reference.
	inputs := make([]Logical, len(stmt.From))
	for i, ref := range stmt.From {
		if ref.Sub != nil {
			sub, err := b.buildSelect(ref.Sub)
			if err != nil {
				return nil, err
			}
			inputs[i] = b.estimated(&derived{child: sub, sch: qualify(ref.Alias, sub.Schema())})
			continue
		}
		tbl, err := b.cat.Lookup(ref.Name)
		if err != nil {
			return nil, err
		}
		inputs[i] = b.estimated(&LScan{
			Table: tbl,
			Alias: ref.DisplayName(),
			sch:   qualify(strings.ToLower(ref.DisplayName()), tbl.Schema),
		})
	}

	// 2. WHERE: split conjuncts into per-input filters, equi-join
	// predicates, and residual conditions.
	conjuncts := splitConjuncts(stmt.Where)
	used := make([]bool, len(conjuncts))

	// Push single-table filters down to their input.
	for ci, c := range conjuncts {
		for ii, in := range inputs {
			if bindable(c, []*types.Schema{in.Schema()}) {
				pred, err := bindExpr(c, in.Schema())
				if err != nil {
					return nil, err
				}
				inputs[ii] = b.pushFilter(in, pred)
				used[ci] = true
				break
			}
		}
	}

	// 2b. Column pruning: each input keeps only the columns the query
	// references (filters already pushed down bind against the full
	// schema below the projection). SELECT * keeps everything.
	b.pruneInputs(stmt, inputs, conjuncts, used)

	// 3. Join the inputs left-deep in FROM order, picking applicable
	// equi predicates at each step.
	cur := inputs[0]
	joined := []Logical{inputs[0]}
	for i := 1; i < len(inputs); i++ {
		right := inputs[i]
		var lKeys, rKeys []expr.Expr
		var lCols, rCols []string
		for ci, c := range conjuncts {
			if used[ci] {
				continue
			}
			lc, rc, ok := equiJoinSides(c, cur.Schema(), right.Schema())
			if !ok {
				continue
			}
			le, err := bindExpr(lc, cur.Schema())
			if err != nil {
				return nil, err
			}
			re, err := bindExpr(rc, right.Schema())
			if err != nil {
				return nil, err
			}
			lKeys = append(lKeys, le)
			rKeys = append(rKeys, re)
			lCols = append(lCols, colName(lc, cur.Schema()))
			rCols = append(rCols, colName(rc, right.Schema()))
			used[ci] = true
		}
		if len(lKeys) == 0 {
			return nil, fmt.Errorf("plan: no equi-join predicate between %v and input %d (cross joins unsupported)", joined, i)
		}
		// Build on the smaller estimated side: swap so Left is smaller.
		left := cur
		if right.Estimate().Rows < left.Estimate().Rows {
			left, right = right, left
			lKeys, rKeys = rKeys, lKeys
			lCols, rCols = rCols, lCols
		}
		cur = b.estimated(&LJoin{
			Left: left, Right: right,
			LeftKeys: lKeys, RightKeys: rKeys,
			LeftKeyCols: lCols, RightKeyCols: rCols,
			sch: left.Schema().Concat(right.Schema()),
		})
		joined = append(joined, right)
	}

	// Residual multi-table predicates become a filter above the joins.
	var residual []expr.Expr
	for ci, c := range conjuncts {
		if used[ci] {
			continue
		}
		pred, err := bindExpr(c, cur.Schema())
		if err != nil {
			return nil, err
		}
		residual = append(residual, pred)
	}
	if len(residual) > 0 {
		cur = b.estimated(&LFilter{Child: cur, Pred: expr.NewAnd(residual...)})
	}

	// 4. Aggregation and projection.
	cur, outNames, err := b.buildProjection(stmt, cur)
	if err != nil {
		return nil, err
	}

	// 5. ORDER BY / LIMIT over the projected output.
	if len(stmt.OrderBy) > 0 {
		keys, err := bindOrderBy(stmt.OrderBy, cur.Schema(), outNames)
		if err != nil {
			return nil, err
		}
		if stmt.Limit >= 0 {
			cur = b.estimated(&LTopN{Child: cur, Keys: keys, N: stmt.Limit})
		} else {
			cur = b.estimated(&LSort{Child: cur, Keys: keys})
		}
	} else if stmt.Limit >= 0 {
		cur = b.estimated(&LLimit{Child: cur, N: stmt.Limit})
	}
	return cur, nil
}

// derived renames a subquery's output columns under its alias.
type derived struct {
	child Logical
	sch   *types.Schema
	Est
}

// Schema implements Logical.
func (d *derived) Schema() *types.Schema { return d.sch }

// pushFilter adds pred to in: to a scan's or a filter's predicate, or
// as a new filter above in. A scan's estimate follows its predicate.
func (b *binder) pushFilter(in Logical, pred expr.Expr) Logical {
	if s, ok := in.(*LScan); ok {
		if s.Pred == nil {
			s.Pred = pred
		} else {
			s.Pred = expr.NewAnd(s.Pred, pred)
		}
		return b.estimated(s)
	}
	if f, ok := in.(*LFilter); ok {
		f.Pred = expr.NewAnd(f.Pred, pred)
		return f
	}
	return b.estimated(&LFilter{Child: in, Pred: pred})
}

// pruneInputs narrows each FROM input to the columns referenced by the
// query — the projection pushdown that keeps exchanges from shipping
// full base rows. Star queries keep the full width.
func (b *binder) pruneInputs(stmt *sql.SelectStmt, inputs []Logical,
	conjuncts []sql.Expr, used []bool) {
	for _, it := range stmt.Items {
		if it.Star {
			return
		}
	}
	// Collect every AST expression that may reference input columns.
	var exprs []sql.Expr
	for _, it := range stmt.Items {
		exprs = append(exprs, it.Expr)
	}
	exprs = append(exprs, stmt.GroupBy...)
	if stmt.Having != nil {
		exprs = append(exprs, stmt.Having)
	}
	for _, o := range stmt.OrderBy {
		exprs = append(exprs, o.Expr)
	}
	for ci, c := range conjuncts {
		if !used[ci] {
			exprs = append(exprs, c)
		}
	}
	for i, in := range inputs {
		sch := in.Schema()
		keep := make([]bool, sch.NumCols())
		for _, e := range exprs {
			for _, c := range colsOf(e) {
				if idx := resolve(c, sch); idx >= 0 {
					keep[idx] = true
				}
			}
		}
		var cols []expr.Expr
		var names []types.Column
		for idx, k := range keep {
			if !k {
				continue
			}
			cols = append(cols, expr.NewCol(idx, sch.Cols[idx].Name))
			names = append(names, sch.Cols[idx])
		}
		if len(cols) == 0 || len(cols) == sch.NumCols() {
			continue // nothing referenced (scalar count(*)) or nothing to prune
		}
		inputs[i] = b.estimated(&LProject{Child: in, Exprs: cols, sch: types.NewSchema(names...)})
	}
}
