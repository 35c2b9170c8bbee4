package expr

import "fmt"

// Rebase moves e from a schema to the one made of that schema's columns
// from n on: every column index drops by n. It reports false when e
// reads a column before n, which the narrower schema does not have.
// The result is a copy: e is never mutated, as it may belong to a
// cached plan.
func Rebase(e Expr, n int) (Expr, bool) {
	ok := true
	out := mapCols(e, func(c *Col) Expr {
		if c.Idx < n {
			ok = false
			return c
		}
		return NewCol(c.Idx-n, c.Name)
	})
	return out, ok
}

// Remap moves e from the output of a projection to its input: column i
// becomes to[i], the projection's i-th expression. The result is a
// copy, as Rebase's is.
func Remap(e Expr, to []Expr) Expr {
	return mapCols(e, func(c *Col) Expr { return to[c.Idx] })
}

// mapCols copies e with every column replaced by f's answer for it.
func mapCols(e Expr, f func(*Col) Expr) Expr {
	r := func(x Expr) Expr { return mapCols(x, f) }
	switch x := e.(type) {
	case nil, *Const, *Param:
		return e
	case *Col:
		return f(x)
	case *Arith:
		return NewArith(x.Op, r(x.L), r(x.R))
	case *Cmp:
		return NewCmp(x.Op, r(x.L), r(x.R))
	case *And:
		return &And{Terms: mapList(x.Terms, r)}
	case *Or:
		return &Or{Terms: mapList(x.Terms, r)}
	case *Not:
		return NewNot(r(x.E))
	case *Like:
		return NewLike(r(x.E), x.Pattern, x.Negate)
	case *Between:
		return NewBetween(r(x.E), r(x.Lo), r(x.Hi))
	case *In:
		return NewIn(r(x.E), x.List)
	case *Case:
		whens := make([]When, len(x.Whens))
		for i, w := range x.Whens {
			whens[i] = When{Cond: r(w.Cond), Then: r(w.Then)}
		}
		return NewCase(whens, r(x.Else))
	case *Extract:
		return NewExtract(x.Part, r(x.E))
	case *AddMonths:
		return NewAddMonths(r(x.E), x.Months)
	}
	panic(fmt.Sprintf("expr: mapCols does not know %T", e))
}

func mapList(terms []Expr, r func(Expr) Expr) []Expr {
	out := make([]Expr, len(terms))
	for i, t := range terms {
		out[i] = r(t)
	}
	return out
}
