package expr

// This file implements prepared-statement parameters. A Param is a
// constant slot ($n) left in a compiled plan by PREPARE. The plan is a
// shared template and stays one: an EXECUTE carries its argument values
// beside it, and the executor calls SubstParams on each expression at
// the moment it hands that expression to an iterator constructor, so
// the template is never mutated or cloned and the batch kernels compile
// against plain constants. Where a Param can sit is what Rewrite knows
// of every node's children: SubstParams and the compile-time count
// (Walk) both run on it.

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

// SubstParams returns the expression with every Param replaced by the
// corresponding constant from vals (vals[N-1] binds $N). It is a
// Rewrite: subtrees without parameters are shared, not copied — and
// cost no allocation — so substitution clones only the spine above each
// slot, and the input tree, which may be a cached plan, is never
// mutated.
func SubstParams(e Expr, vals []types.Value) (Expr, error) {
	var err error
	out := Rewrite(e, func(x Expr) (Expr, bool) {
		p, ok := x.(*Param)
		if !ok {
			return nil, false
		}
		if p.N < 1 || p.N > len(vals) {
			err = fmt.Errorf("expr: no value bound for $%d (%d bound)", p.N, len(vals))
			return p, true
		}
		return NewConst(vals[p.N-1]), true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
