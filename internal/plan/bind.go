package plan

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/iterator"
	"repro/internal/sql"
	"repro/internal/types"
)

// splitConjuncts flattens a WHERE tree into its AND-ed conjuncts.
func splitConjuncts(e sql.Expr) []sql.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sql.BinExpr); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []sql.Expr{e}
}

// colsOf collects the column references of an AST expression.
func colsOf(e sql.Expr) []*sql.ColRef {
	var out []*sql.ColRef
	sql.Walk(e, func(n sql.Expr) {
		if c, ok := n.(*sql.ColRef); ok {
			out = append(out, c)
		}
	})
	return out
}

// resolve finds the schema index of a column reference.
func resolve(c *sql.ColRef, sch *types.Schema) int {
	if c.Qualifier != "" {
		return sch.ColIndex(c.Qualifier + "." + c.Name)
	}
	return sch.ColIndex(c.Name)
}

// bindable reports whether every column of e resolves within one of the
// given schemas (all of them together forming one scope is NOT implied:
// pass a single-schema slice for per-input tests).
func bindable(e sql.Expr, schemas []*types.Schema) bool {
	for _, c := range colsOf(e) {
		found := false
		for _, s := range schemas {
			if resolve(c, s) >= 0 {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// equiJoinSides checks whether conjunct e is `a = b` with a bindable on
// left schema and b on right schema (or vice versa); it returns the
// AST sides in (left, right) order.
func equiJoinSides(e sql.Expr, left, right *types.Schema) (sql.Expr, sql.Expr, bool) {
	b, ok := e.(*sql.BinExpr)
	if !ok || b.Op != "=" {
		return nil, nil, false
	}
	lCols, rCols := colsOf(b.L), colsOf(b.R)
	if len(lCols) == 0 || len(rCols) == 0 {
		return nil, nil, false
	}
	if bindable(b.L, []*types.Schema{left}) && bindable(b.R, []*types.Schema{right}) {
		return b.L, b.R, true
	}
	if bindable(b.L, []*types.Schema{right}) && bindable(b.R, []*types.Schema{left}) {
		return b.R, b.L, true
	}
	return nil, nil, false
}

// colName returns the fully qualified schema name of e when it is a
// plain column reference, or "" otherwise.
func colName(e sql.Expr, sch *types.Schema) string {
	c, ok := e.(*sql.ColRef)
	if !ok {
		return ""
	}
	idx := resolve(c, sch)
	if idx < 0 {
		return ""
	}
	return sch.Cols[idx].Name
}

// bindExpr compiles an AST expression into a runtime expression over the
// given input schema.
func bindExpr(e sql.Expr, sch *types.Schema) (expr.Expr, error) {
	switch n := e.(type) {
	case *sql.ColRef:
		idx := resolve(n, sch)
		if idx < 0 {
			return nil, fmt.Errorf("plan: unknown column %q", n.String())
		}
		return expr.NewCol(idx, sch.Cols[idx].Name), nil

	case *sql.ParamRef:
		return expr.NewParam(n.N), nil

	case *sql.IntLit:
		return expr.NewConst(types.IntVal(n.V)), nil
	case *sql.FloatLit:
		return expr.NewConst(types.FloatVal(n.V)), nil
	case *sql.StrLit:
		return expr.NewConst(types.StrVal(n.V)), nil
	case *sql.DateLit:
		return expr.NewConst(types.DateVal(n.Days)), nil
	case *sql.IntervalLit:
		// Bare interval (should only appear inside date arithmetic,
		// handled below); day intervals degrade to integer days.
		if n.Unit == "day" {
			return expr.NewConst(types.IntVal(n.N)), nil
		}
		return nil, fmt.Errorf("plan: %s interval outside date arithmetic", n.Unit)

	case *sql.BinExpr:
		switch n.Op {
		case "AND":
			l, err := bindExpr(n.L, sch)
			if err != nil {
				return nil, err
			}
			r, err := bindExpr(n.R, sch)
			if err != nil {
				return nil, err
			}
			return expr.NewAnd(l, r), nil
		case "OR":
			l, err := bindExpr(n.L, sch)
			if err != nil {
				return nil, err
			}
			r, err := bindExpr(n.R, sch)
			if err != nil {
				return nil, err
			}
			return expr.NewOr(l, r), nil
		case "=", "<>", "<", "<=", ">", ">=":
			l, err := bindExpr(n.L, sch)
			if err != nil {
				return nil, err
			}
			r, err := bindExpr(n.R, sch)
			if err != nil {
				return nil, err
			}
			ops := map[string]expr.CmpOp{"=": expr.EQ, "<>": expr.NE,
				"<": expr.LT, "<=": expr.LE, ">": expr.GT, ">=": expr.GE}
			inferParamKinds(sch, l, r)
			return expr.NewCmp(ops[n.Op], l, r), nil
		case "+", "-":
			// Date ± interval with month/year units needs AddMonths.
			if iv, ok := n.R.(*sql.IntervalLit); ok && iv.Unit != "day" {
				l, err := bindExpr(n.L, sch)
				if err != nil {
					return nil, err
				}
				months := int(iv.N)
				if iv.Unit == "year" {
					months *= 12
				}
				if n.Op == "-" {
					months = -months
				}
				if p, ok := l.(*expr.Param); ok {
					p.SetKind(types.Date)
				}
				return expr.NewAddMonths(l, months), nil
			}
			fallthrough
		case "*", "/":
			l, err := bindExpr(n.L, sch)
			if err != nil {
				return nil, err
			}
			r, err := bindExpr(n.R, sch)
			if err != nil {
				return nil, err
			}
			ops := map[string]expr.ArithOp{"+": expr.Add, "-": expr.Sub,
				"*": expr.Mul, "/": expr.Div}
			inferParamKinds(sch, l, r)
			return expr.NewArith(ops[n.Op], l, r), nil
		}
		return nil, fmt.Errorf("plan: unsupported operator %q", n.Op)

	case *sql.NotExpr:
		c, err := bindExpr(n.E, sch)
		if err != nil {
			return nil, err
		}
		return expr.NewNot(c), nil

	case *sql.NegExpr:
		c, err := bindExpr(n.E, sch)
		if err != nil {
			return nil, err
		}
		return expr.NewArith(expr.Sub, expr.NewConst(types.IntVal(0)), c), nil

	case *sql.LikeExpr:
		c, err := bindExpr(n.E, sch)
		if err != nil {
			return nil, err
		}
		if p, ok := c.(*expr.Param); ok {
			p.SetKind(types.String)
		}
		return expr.NewLike(c, n.Pattern, n.Negate), nil

	case *sql.BetweenExpr:
		c, err := bindExpr(n.E, sch)
		if err != nil {
			return nil, err
		}
		lo, err := bindExpr(n.Lo, sch)
		if err != nil {
			return nil, err
		}
		hi, err := bindExpr(n.Hi, sch)
		if err != nil {
			return nil, err
		}
		inferParamKinds(sch, c, lo, hi)
		return expr.NewBetween(c, lo, hi), nil

	case *sql.InExpr:
		c, err := bindExpr(n.E, sch)
		if err != nil {
			return nil, err
		}
		var list []types.Value
		for _, item := range n.List {
			bound, err := bindExpr(item, sch)
			if err != nil {
				return nil, err
			}
			cst, ok := bound.(*expr.Const)
			if !ok {
				return nil, fmt.Errorf("plan: IN list must be literals")
			}
			list = append(list, cst.V)
		}
		if p, ok := c.(*expr.Param); ok && len(list) > 0 {
			p.SetKind(list[0].Kind)
		}
		var out expr.Expr = expr.NewIn(c, list)
		if n.Negate {
			out = expr.NewNot(out)
		}
		return out, nil

	case *sql.CaseExpr:
		var whens []expr.When
		for _, w := range n.Whens {
			cond, err := bindExpr(w.Cond, sch)
			if err != nil {
				return nil, err
			}
			then, err := bindExpr(w.Then, sch)
			if err != nil {
				return nil, err
			}
			whens = append(whens, expr.When{Cond: cond, Then: then})
		}
		var els expr.Expr
		if n.Else != nil {
			var err error
			els, err = bindExpr(n.Else, sch)
			if err != nil {
				return nil, err
			}
		}
		return expr.NewCase(whens, els), nil

	case *sql.ExtractExpr:
		c, err := bindExpr(n.E, sch)
		if err != nil {
			return nil, err
		}
		part := expr.Year
		if n.Part == "month" {
			part = expr.Month
		}
		return expr.NewExtract(part, c), nil

	case *sql.FuncExpr:
		return nil, fmt.Errorf("plan: aggregate %q in non-aggregate context", n.Name)
	}
	return nil, fmt.Errorf("plan: cannot bind %T", e)
}

// inferParamKinds types parameter slots from their context: a
// parameter compared with (or spanning, for BETWEEN) a typed
// expression adopts that expression's kind, so EXECUTE can coerce
// argument values (dates in particular) before substitution.
func inferParamKinds(sch *types.Schema, exprs ...expr.Expr) {
	var kind types.Kind
	typed := false
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if _, ok := e.(*expr.Param); ok {
			continue
		}
		kind, typed = e.Kind(sch), true
		break
	}
	if !typed {
		return
	}
	for _, e := range exprs {
		if p, ok := e.(*expr.Param); ok {
			p.SetKind(kind)
		}
	}
}

// bindOrderBy resolves ORDER BY terms, accepting output aliases
// (e.g. "ORDER BY revenue DESC") as well as input columns.
func bindOrderBy(items []sql.OrderItem, sch *types.Schema, outNames []string) ([]iterator.SortKey, error) {
	keys := make([]iterator.SortKey, len(items))
	for i, it := range items {
		if c, ok := it.Expr.(*sql.ColRef); ok && c.Qualifier == "" {
			// Try alias match first.
			matched := false
			for idx, name := range outNames {
				if strings.EqualFold(name, c.Name) {
					keys[i] = iterator.SortKey{E: expr.NewCol(idx, name), Desc: it.Desc}
					matched = true
					break
				}
			}
			if matched {
				continue
			}
		}
		e, err := bindExpr(it.Expr, sch)
		if err != nil {
			return nil, fmt.Errorf("plan: ORDER BY: %w", err)
		}
		keys[i] = iterator.SortKey{E: e, Desc: it.Desc}
	}
	return keys, nil
}
