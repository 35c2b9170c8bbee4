package expr

// This file implements prepared-statement parameters. A Param is a
// constant slot ($n) left in a compiled plan by PREPARE. The plan is a
// shared template and stays one: an EXECUTE carries its argument values
// beside it, and the executor calls SubstParams on each expression at
// the moment it hands that expression to an iterator constructor, so
// the template is never mutated or cloned and the batch kernels compile
// against plain constants. WalkParams and substParams are the only two
// switches that know where a Param can sit; both are closed over every
// Expr type in this package, so a new node must join both.

import (
	"fmt"

	"repro/internal/types"
)

// Param is a positional prepared-statement parameter ($n, 1-based).
type Param struct {
	N int
	// K is the kind inferred from the parameter's comparison context at
	// compile time; Typed records whether inference succeeded. Untyped
	// parameters advertise Int64.
	K     types.Kind
	Typed bool
}

// NewParam builds an (as yet untyped) parameter slot.
func NewParam(n int) *Param { return &Param{N: n} }

// Eval implements Expr. An unsubstituted parameter yields NULL;
// execution never reaches here because the executor substitutes every
// expression it builds an iterator from.
func (p *Param) Eval([]byte, *types.Schema) types.Value { return types.NullVal(p.Kind(nil)) }

// Kind implements Expr.
func (p *Param) Kind(*types.Schema) types.Kind {
	if p.Typed {
		return p.K
	}
	return types.Int64
}

func (p *Param) String() string { return fmt.Sprintf("$%d", p.N) }

// SetKind records the kind inferred from context, first inference wins.
func (p *Param) SetKind(k types.Kind) {
	if !p.Typed {
		p.K, p.Typed = k, true
	}
}

// WalkParams visits every Param in the tree. It runs at compile time
// only (slot count and kinds); nothing on the EXECUTE path walks.
func WalkParams(e Expr, fn func(*Param)) {
	switch n := e.(type) {
	case nil:
	case *Param:
		fn(n)
	case *Col, *Const:
	case *Arith:
		WalkParams(n.L, fn)
		WalkParams(n.R, fn)
	case *Cmp:
		WalkParams(n.L, fn)
		WalkParams(n.R, fn)
	case *And:
		for _, t := range n.Terms {
			WalkParams(t, fn)
		}
	case *Or:
		for _, t := range n.Terms {
			WalkParams(t, fn)
		}
	case *Not:
		WalkParams(n.E, fn)
	case *Like:
		WalkParams(n.E, fn)
	case *Between:
		WalkParams(n.E, fn)
		WalkParams(n.Lo, fn)
		WalkParams(n.Hi, fn)
	case *In:
		WalkParams(n.E, fn)
	case *Case:
		for _, w := range n.Whens {
			WalkParams(w.Cond, fn)
			WalkParams(w.Then, fn)
		}
		WalkParams(n.Else, fn)
	case *Extract:
		WalkParams(n.E, fn)
	case *AddMonths:
		WalkParams(n.E, fn)
	default:
		// A slot the walk cannot see would run unsubstituted and read as
		// NULL: refuse loudly instead.
		panic(fmt.Sprintf("expr: WalkParams does not know %T", e))
	}
}

// SubstParams returns the expression with every Param replaced by the
// corresponding constant from vals (vals[N-1] binds $N). Subtrees
// without parameters are shared, not copied — and cost no allocation —
// so substitution clones only the spine above each slot. The input tree
// is never mutated — it may be a cached, concurrently shared plan.
func SubstParams(e Expr, vals []types.Value) (Expr, error) {
	out, _, err := substParams(e, vals)
	return out, err
}

func substParams(e Expr, vals []types.Value) (Expr, bool, error) {
	switch n := e.(type) {
	case nil:
		return nil, false, nil
	case *Param:
		if n.N < 1 || n.N > len(vals) {
			return nil, false, fmt.Errorf("expr: no value bound for $%d (%d bound)", n.N, len(vals))
		}
		return NewConst(vals[n.N-1]), true, nil
	case *Col, *Const:
		return e, false, nil
	case *Arith:
		l, cl, err := substParams(n.L, vals)
		if err != nil {
			return nil, false, err
		}
		r, cr, err := substParams(n.R, vals)
		if err != nil {
			return nil, false, err
		}
		if !cl && !cr {
			return e, false, nil
		}
		return NewArith(n.Op, l, r), true, nil
	case *Cmp:
		l, cl, err := substParams(n.L, vals)
		if err != nil {
			return nil, false, err
		}
		r, cr, err := substParams(n.R, vals)
		if err != nil {
			return nil, false, err
		}
		if !cl && !cr {
			return e, false, nil
		}
		return NewCmp(n.Op, l, r), true, nil
	case *And:
		terms, changed, err := substList(n.Terms, vals)
		if err != nil {
			return nil, false, err
		}
		if !changed {
			return e, false, nil
		}
		return &And{Terms: terms}, true, nil
	case *Or:
		terms, changed, err := substList(n.Terms, vals)
		if err != nil {
			return nil, false, err
		}
		if !changed {
			return e, false, nil
		}
		return &Or{Terms: terms}, true, nil
	case *Not:
		c, changed, err := substParams(n.E, vals)
		if err != nil {
			return nil, false, err
		}
		if !changed {
			return e, false, nil
		}
		return NewNot(c), true, nil
	case *Like:
		c, changed, err := substParams(n.E, vals)
		if err != nil {
			return nil, false, err
		}
		if !changed {
			return e, false, nil
		}
		return NewLike(c, n.Pattern, n.Negate), true, nil
	case *Between:
		c, cc, err := substParams(n.E, vals)
		if err != nil {
			return nil, false, err
		}
		lo, cl, err := substParams(n.Lo, vals)
		if err != nil {
			return nil, false, err
		}
		hi, ch, err := substParams(n.Hi, vals)
		if err != nil {
			return nil, false, err
		}
		if !cc && !cl && !ch {
			return e, false, nil
		}
		return NewBetween(c, lo, hi), true, nil
	case *In:
		c, changed, err := substParams(n.E, vals)
		if err != nil {
			return nil, false, err
		}
		if !changed {
			return e, false, nil
		}
		return NewIn(c, n.List), true, nil
	case *Case:
		whens, changed := n.Whens, false
		for i, w := range n.Whens {
			cond, cc, err := substParams(w.Cond, vals)
			if err != nil {
				return nil, false, err
			}
			then, ct, err := substParams(w.Then, vals)
			if err != nil {
				return nil, false, err
			}
			if cc || ct {
				if !changed {
					whens, changed = append([]When(nil), n.Whens...), true
				}
				whens[i] = When{Cond: cond, Then: then}
			}
		}
		els, ce, err := substParams(n.Else, vals)
		if err != nil {
			return nil, false, err
		}
		if !changed && !ce {
			return e, false, nil
		}
		return NewCase(whens, els), true, nil
	case *Extract:
		c, changed, err := substParams(n.E, vals)
		if err != nil {
			return nil, false, err
		}
		if !changed {
			return e, false, nil
		}
		return NewExtract(n.Part, c), true, nil
	case *AddMonths:
		c, changed, err := substParams(n.E, vals)
		if err != nil {
			return nil, false, err
		}
		if !changed {
			return e, false, nil
		}
		return NewAddMonths(c, n.Months), true, nil
	default:
		return nil, false, fmt.Errorf("expr: SubstParams does not know %T", e)
	}
}

func substList(terms []Expr, vals []types.Value) ([]Expr, bool, error) {
	out, changed := terms, false
	for i, t := range terms {
		s, c, err := substParams(t, vals)
		if err != nil {
			return nil, false, err
		}
		if c {
			if !changed {
				out, changed = append([]Expr(nil), terms...), true
			}
			out[i] = s
		}
	}
	return out, changed, nil
}
