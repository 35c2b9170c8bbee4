package plan

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/iterator"
	"repro/internal/sql"
	"repro/internal/types"
)

// aggFuncs maps SQL aggregate names to operators.
var aggFuncs = map[string]iterator.AggFunc{
	"sum": iterator.Sum, "count": iterator.Count, "avg": iterator.Avg,
	"min": iterator.Min, "max": iterator.Max,
}

func isAggFunc(e sql.Expr) (*sql.FuncExpr, bool) {
	f, ok := e.(*sql.FuncExpr)
	if !ok {
		return nil, false
	}
	_, agg := aggFuncs[f.Name]
	return f, agg
}

func containsAgg(e sql.Expr) bool {
	found := false
	sql.WalkExpr(e, func(n sql.Expr) {
		if _, ok := isAggFunc(n); ok {
			found = true
		}
	})
	return found
}

// buildProjection lowers the SELECT list (with GROUP BY / HAVING when
// present) on top of cur. It returns the resulting plan and the output
// column names (for ORDER BY alias resolution).
func (b *binder) buildProjection(stmt *sql.SelectStmt, cur Logical) (Logical, []string, error) {
	hasAgg := len(stmt.GroupBy) > 0 || stmt.Having != nil
	for _, it := range stmt.Items {
		if !it.Star && containsAgg(it.Expr) {
			hasAgg = true
		}
	}

	if !hasAgg {
		// Plain projection (or SELECT *).
		if len(stmt.Items) == 1 && stmt.Items[0].Star {
			names := make([]string, cur.Schema().NumCols())
			for i, c := range cur.Schema().Cols {
				names[i] = bareName(c.Name)
			}
			return cur, names, nil
		}
		var exprs []expr.Expr
		var names []string
		for _, it := range stmt.Items {
			if it.Star {
				return nil, nil, fmt.Errorf("plan: mixing * with expressions is unsupported")
			}
			e, err := bindExpr(it.Expr, cur.Schema())
			if err != nil {
				return nil, nil, err
			}
			exprs = append(exprs, e)
			names = append(names, itemName(it))
		}
		out := projectSchema(exprs, names, cur.Schema())
		return b.estimated(&LProject{Child: cur, Exprs: exprs, sch: out}), names, nil
	}

	// Aggregation. Bind group keys over the input.
	var keys []expr.Expr
	var keyCols []string
	keyNames := make([]string, len(stmt.GroupBy))
	for i, g := range stmt.GroupBy {
		e, err := bindExpr(g, cur.Schema())
		if err != nil {
			return nil, nil, fmt.Errorf("plan: GROUP BY: %w", err)
		}
		keys = append(keys, e)
		keyNames[i] = fmt.Sprintf("__key_%d", i)
		keyCols = append(keyCols, colName(g, cur.Schema()))
	}

	// Collect distinct aggregates across SELECT and HAVING, rewriting
	// each occurrence into a reference to the aggregation output.
	agg := &aggCollector{
		groupBy: stmt.GroupBy,
		in:      cur.Schema(),
	}
	rewrittenItems := make([]sql.Expr, len(stmt.Items))
	for i, it := range stmt.Items {
		if it.Star {
			return nil, nil, fmt.Errorf("plan: SELECT * with GROUP BY is unsupported")
		}
		r, err := agg.rewrite(it.Expr)
		if err != nil {
			return nil, nil, err
		}
		rewrittenItems[i] = r
	}
	var rewrittenHaving sql.Expr
	if stmt.Having != nil {
		r, err := agg.rewrite(stmt.Having)
		if err != nil {
			return nil, nil, err
		}
		rewrittenHaving = r
	}

	plan := b.estimated(&LAgg{
		Child:    cur,
		Keys:     keys,
		KeyNames: keyNames,
		KeyCols:  keyCols,
		Specs:    agg.specs,
		sch:      aggOutputSchema(keys, keyNames, agg.specs, cur.Schema()),
	})

	if rewrittenHaving != nil {
		pred, err := bindExpr(rewrittenHaving, plan.Schema())
		if err != nil {
			return nil, nil, fmt.Errorf("plan: HAVING: %w", err)
		}
		plan = b.estimated(&LFilter{Child: plan, Pred: pred})
	}

	// Final projection over the aggregation output.
	var exprs []expr.Expr
	var names []string
	for i, r := range rewrittenItems {
		e, err := bindExpr(r, plan.Schema())
		if err != nil {
			return nil, nil, err
		}
		exprs = append(exprs, e)
		names = append(names, itemName(stmt.Items[i]))
	}
	out := projectSchema(exprs, names, plan.Schema())
	return b.estimated(&LProject{Child: plan, Exprs: exprs, sch: out}), names, nil
}

// aggCollector rewrites expressions for evaluation above an aggregation:
// aggregate calls become __agg_j references, group-by-matching subtrees
// become __key_i references.
type aggCollector struct {
	groupBy []sql.Expr
	in      *types.Schema
	specs   []iterator.AggSpec
	seen    map[string]int // canonical aggregate text → spec index
}

func (a *aggCollector) rewrite(e sql.Expr) (sql.Expr, error) {
	// Group-expression match takes precedence (e.g. GROUP BY
	// extract(year from d) ... SELECT extract(year from d)). Column
	// references match by resolved position so that qualified and bare
	// spellings (T.sec_code vs sec_code) agree; other expressions match
	// by canonical text.
	for i, g := range a.groupBy {
		if e.String() == g.String() {
			return &sql.ColRef{Name: fmt.Sprintf("__key_%d", i)}, nil
		}
		ec, eOK := e.(*sql.ColRef)
		gc, gOK := g.(*sql.ColRef)
		if eOK && gOK {
			if resolve(ec, a.in) >= 0 && resolve(ec, a.in) == resolve(gc, a.in) {
				return &sql.ColRef{Name: fmt.Sprintf("__key_%d", i)}, nil
			}
			// A bare SELECT column also matches a qualified GROUP BY
			// column of the same name (the paper's SSE-Q9 selects
			// acct_id while grouping by S.acct_id; the join equality
			// makes the spellings equivalent).
			if ec.Qualifier == "" && strings.EqualFold(ec.Name, gc.Name) {
				return &sql.ColRef{Name: fmt.Sprintf("__key_%d", i)}, nil
			}
		}
	}
	if f, ok := isAggFunc(e); ok {
		idx, err := a.addSpec(f)
		if err != nil {
			return nil, err
		}
		return &sql.ColRef{Name: fmt.Sprintf("__agg_%d", idx)}, nil
	}
	switch n := e.(type) {
	case *sql.ColRef, *sql.IntLit, *sql.FloatLit, *sql.StrLit, *sql.DateLit, *sql.IntervalLit:
		return e, nil
	case *sql.BinExpr:
		l, err := a.rewrite(n.L)
		if err != nil {
			return nil, err
		}
		r, err := a.rewrite(n.R)
		if err != nil {
			return nil, err
		}
		return &sql.BinExpr{Op: n.Op, L: l, R: r}, nil
	case *sql.NotExpr:
		c, err := a.rewrite(n.E)
		if err != nil {
			return nil, err
		}
		return &sql.NotExpr{E: c}, nil
	case *sql.NegExpr:
		c, err := a.rewrite(n.E)
		if err != nil {
			return nil, err
		}
		return &sql.NegExpr{E: c}, nil
	case *sql.ExtractExpr:
		c, err := a.rewrite(n.E)
		if err != nil {
			return nil, err
		}
		return &sql.ExtractExpr{Part: n.Part, E: c}, nil
	case *sql.CaseExpr:
		out := &sql.CaseExpr{}
		for _, w := range n.Whens {
			c, err := a.rewrite(w.Cond)
			if err != nil {
				return nil, err
			}
			t, err := a.rewrite(w.Then)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, sql.WhenClause{Cond: c, Then: t})
		}
		if n.Else != nil {
			el, err := a.rewrite(n.Else)
			if err != nil {
				return nil, err
			}
			out.Else = el
		}
		return out, nil
	}
	return e, nil
}

func (a *aggCollector) addSpec(f *sql.FuncExpr) (int, error) {
	if a.seen == nil {
		a.seen = make(map[string]int)
	}
	key := f.String()
	if idx, ok := a.seen[key]; ok {
		return idx, nil
	}
	spec := iterator.AggSpec{Func: aggFuncs[f.Name]}
	if f.Star {
		if spec.Func != iterator.Count {
			return 0, fmt.Errorf("plan: %s(*) is invalid", f.Name)
		}
	} else {
		if len(f.Args) != 1 {
			return 0, fmt.Errorf("plan: %s takes exactly one argument", f.Name)
		}
		if containsAgg(f.Args[0]) {
			return 0, fmt.Errorf("plan: nested aggregates are invalid")
		}
		arg, err := bindExpr(f.Args[0], a.in)
		if err != nil {
			return 0, err
		}
		spec.Arg = arg
	}
	idx := len(a.specs)
	spec.Name = fmt.Sprintf("__agg_%d", idx)
	a.specs = append(a.specs, spec)
	a.seen[key] = idx
	return idx, nil
}

// aggOutputSchema mirrors iterator.NewHashAgg's output layout.
func aggOutputSchema(keys []expr.Expr, keyNames []string,
	specs []iterator.AggSpec, in *types.Schema) *types.Schema {
	cols := make([]types.Column, 0, len(keys)+len(specs))
	for i, k := range keys {
		kind := k.Kind(in)
		w := 8
		if kind == types.String {
			w = expr.StringWidth(k, in)
		}
		cols = append(cols, types.Column{Name: keyNames[i], Kind: kind, Width: w})
	}
	for _, s := range specs {
		cols = append(cols, s.Column(in))
	}
	return types.NewSchema(cols...)
}

// projectSchema derives the output schema of a projection.
func projectSchema(exprs []expr.Expr, names []string, in *types.Schema) *types.Schema {
	cols := make([]types.Column, len(exprs))
	for i, e := range exprs {
		kind := e.Kind(in)
		w := 8
		if kind == types.String {
			w = expr.StringWidth(e, in)
		}
		cols[i] = types.Column{Name: names[i], Kind: kind, Width: w}
	}
	return types.NewSchema(cols...)
}

func itemName(it sql.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if c, ok := it.Expr.(*sql.ColRef); ok {
		return c.Name
	}
	return strings.ToLower(it.Expr.String())
}

func bareName(name string) string {
	if dot := strings.LastIndexByte(name, '.'); dot >= 0 {
		return name[dot+1:]
	}
	return name
}
