package sql

import "fmt"

// Rewrite returns e with every node f claims replaced by f's answer. It
// asks f about each node top-down, parents before children; a claimed
// node's answer is taken as it is, without descending into it. A node f
// leaves is rebuilt only when one of its children changed and is shared
// otherwise, so a rewrite that claims nothing returns e itself and
// allocates nothing, and the parsed tree is never mutated.
//
// This is the one switch that knows the children of every node type in
// the package; a new node joins here and nowhere else.
func Rewrite(e Expr, f func(Expr) (Expr, bool)) Expr {
	if e == nil {
		return nil
	}
	if r, ok := f(e); ok {
		return r
	}
	switch n := e.(type) {
	case *ColRef, *IntLit, *FloatLit, *StrLit, *DateLit, *IntervalLit, *ParamRef:
		return e
	case *BinExpr:
		l, r := Rewrite(n.L, f), Rewrite(n.R, f)
		if l == n.L && r == n.R {
			return e
		}
		return &BinExpr{Op: n.Op, L: l, R: r}
	case *NotExpr:
		if c := Rewrite(n.E, f); c != n.E {
			return &NotExpr{E: c}
		}
		return e
	case *NegExpr:
		if c := Rewrite(n.E, f); c != n.E {
			return &NegExpr{E: c}
		}
		return e
	case *LikeExpr:
		if c := Rewrite(n.E, f); c != n.E {
			return &LikeExpr{E: c, Pattern: n.Pattern, Negate: n.Negate}
		}
		return e
	case *BetweenExpr:
		c, lo, hi := Rewrite(n.E, f), Rewrite(n.Lo, f), Rewrite(n.Hi, f)
		if c == n.E && lo == n.Lo && hi == n.Hi {
			return e
		}
		return &BetweenExpr{E: c, Lo: lo, Hi: hi}
	case *InExpr:
		c := Rewrite(n.E, f)
		list, changed := rewriteList(n.List, f)
		if c == n.E && !changed {
			return e
		}
		return &InExpr{E: c, List: list, Negate: n.Negate}
	case *CaseExpr:
		whens, changed := n.Whens, false
		for i, w := range n.Whens {
			cond, then := Rewrite(w.Cond, f), Rewrite(w.Then, f)
			if cond == w.Cond && then == w.Then {
				continue
			}
			if !changed {
				whens, changed = append([]WhenClause(nil), n.Whens...), true
			}
			whens[i] = WhenClause{Cond: cond, Then: then}
		}
		els := Rewrite(n.Else, f)
		if !changed && els == n.Else {
			return e
		}
		return &CaseExpr{Whens: whens, Else: els}
	case *FuncExpr:
		if args, changed := rewriteList(n.Args, f); changed {
			return &FuncExpr{Name: n.Name, Args: args, Star: n.Star}
		}
		return e
	case *ExtractExpr:
		if c := Rewrite(n.E, f); c != n.E {
			return &ExtractExpr{Part: n.Part, E: c}
		}
		return e
	}
	panic(fmt.Sprintf("sql: Rewrite does not know %T", e))
}

// rewriteList rewrites every expression of es, copying es once the
// first of them changes; it reports whether one did.
func rewriteList(es []Expr, f func(Expr) (Expr, bool)) ([]Expr, bool) {
	out, changed := es, false
	for i, x := range es {
		if y := Rewrite(x, f); y != x {
			if !changed {
				out, changed = append([]Expr(nil), es...), true
			}
			out[i] = y
		}
	}
	return out, changed
}

// Walk calls fn on e and every node under it, parents first.
func Walk(e Expr, fn func(Expr)) {
	Rewrite(e, func(x Expr) (Expr, bool) {
		fn(x)
		return nil, false
	})
}
