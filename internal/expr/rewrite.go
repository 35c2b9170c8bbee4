package expr

import "fmt"

// Rewrite returns e with every node f claims replaced by f's answer. It
// asks f about each node top-down, parents before children; a claimed
// node's answer is taken as it is, without descending into it. A node f
// leaves is rebuilt only when one of its children changed and is shared
// otherwise, so a rewrite that claims nothing returns e itself and
// allocates nothing, and the input tree is never mutated: it may belong
// to a cached, concurrently shared plan.
//
// This is the one switch that knows the children of every Expr type in
// the package; SubstParams, Rebase, Remap, Walk and rowFree all run on
// it, so a new node joins here and nowhere else.
func Rewrite(e Expr, f func(Expr) (Expr, bool)) Expr {
	if e == nil {
		return nil
	}
	if r, ok := f(e); ok {
		return r
	}
	switch n := e.(type) {
	case *Col, *Const, *Param:
		return e
	case *Arith:
		l, r := Rewrite(n.L, f), Rewrite(n.R, f)
		if l == n.L && r == n.R {
			return e
		}
		return NewArith(n.Op, l, r)
	case *Cmp:
		l, r := Rewrite(n.L, f), Rewrite(n.R, f)
		if l == n.L && r == n.R {
			return e
		}
		return NewCmp(n.Op, l, r)
	case *And:
		if terms, ok := rewriteList(n.Terms, f); ok {
			return &And{Terms: terms}
		}
		return e
	case *Or:
		if terms, ok := rewriteList(n.Terms, f); ok {
			return &Or{Terms: terms}
		}
		return e
	case *Not:
		if c := Rewrite(n.E, f); c != n.E {
			return NewNot(c)
		}
		return e
	case *Like:
		if c := Rewrite(n.E, f); c != n.E {
			return NewLike(c, n.Pattern, n.Negate)
		}
		return e
	case *Between:
		c, lo, hi := Rewrite(n.E, f), Rewrite(n.Lo, f), Rewrite(n.Hi, f)
		if c == n.E && lo == n.Lo && hi == n.Hi {
			return e
		}
		return NewBetween(c, lo, hi)
	case *In:
		if c := Rewrite(n.E, f); c != n.E {
			return NewIn(c, n.List)
		}
		return e
	case *Case:
		whens, changed := n.Whens, false
		for i, w := range n.Whens {
			cond, then := Rewrite(w.Cond, f), Rewrite(w.Then, f)
			if cond == w.Cond && then == w.Then {
				continue
			}
			if !changed {
				whens, changed = append([]When(nil), n.Whens...), true
			}
			whens[i] = When{Cond: cond, Then: then}
		}
		els := Rewrite(n.Else, f)
		if !changed && els == n.Else {
			return e
		}
		return NewCase(whens, els)
	case *Extract:
		if c := Rewrite(n.E, f); c != n.E {
			return NewExtract(n.Part, c)
		}
		return e
	case *AddMonths:
		if c := Rewrite(n.E, f); c != n.E {
			return NewAddMonths(c, n.Months)
		}
		return e
	}
	panic(fmt.Sprintf("expr: Rewrite does not know %T", e))
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

// Rebase moves e from a schema to the one made of that schema's columns
// from n on: every column index drops by n. It reports false when e
// reads a column before n, which the narrower schema does not have.
// Subtrees without columns are shared, as Rewrite shares them.
func Rebase(e Expr, n int) (Expr, bool) {
	ok := true
	out := Rewrite(e, func(x Expr) (Expr, bool) {
		c, isCol := x.(*Col)
		if !isCol {
			return nil, false
		}
		if c.Idx < n {
			ok = false
			return c, true
		}
		return NewCol(c.Idx-n, c.Name), true
	})
	return out, ok
}

// Remap moves e from the output of a projection to its input: column i
// becomes to[i], the projection's i-th expression.
func Remap(e Expr, to []Expr) Expr {
	return Rewrite(e, func(x Expr) (Expr, bool) {
		if c, ok := x.(*Col); ok {
			return to[c.Idx], true
		}
		return nil, false
	})
}
