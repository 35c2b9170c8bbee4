package expr

import (
	"math"

	"repro/internal/block"
	"repro/internal/types"
)

// Program evaluates a list of expressions over the same rows of a block
// and computes each distinct subexpression once: Q1's partial
// aggregation sums l_extendedprice*(1-l_discount) and that product times
// (1+l_tax), and a program loads each column and forms the product
// once. It is a list of steps in evaluation order, each making one
// vector: a fused kernel over the block, or an arithmetic step over two
// earlier steps' vectors. Like a kernel it is read-only once built, and
// one program serves every worker; each worker evaluates into vectors of
// its own (Vecs).
type Program struct {
	sch   *types.Schema
	steps []step
}

// step makes one vector of a Program: leaf evaluates e over the block,
// or arith combines the vectors of steps l and r (-1 for an operand the
// typed loop reads as a scalar).
type step struct {
	e     Expr
	leaf  BatchExpr
	arith *arithKernel
	l, r  int
}

// NewProgram starts an empty program over blocks of sch.
func NewProgram(sch *types.Schema) *Program { return &Program{sch: sch} }

// Add compiles e into the program and returns the step whose vector
// holds e's value. ok is false, and nothing is added, when e is outside
// the fused shapes.
func (p *Program) Add(e Expr) (at int, ok bool) {
	k := CompileBatch(e, p.sch)
	if !k.Fused() {
		return -1, false
	}
	return p.add(e, k), true
}

// add returns the step of an expression equal to e, adding e (compiled
// to k) and, for arithmetic, its operands first when there is none.
func (p *Program) add(e Expr, k BatchExpr) int {
	if at, ok := p.Find(e); ok {
		return at
	}
	s := step{e: e, leaf: k, l: -1, r: -1}
	if a, ok := k.(*arithKernel); ok {
		n := e.(*Arith)
		s.leaf, s.arith = nil, a
		if !a.scalarL() {
			s.l = p.add(n.L, a.l)
		}
		if !a.scalarR() {
			s.r = p.add(n.R, a.r)
		}
	}
	p.steps = append(p.steps, s)
	return len(p.steps) - 1
}

// Find returns the step that holds an expression equal to e, if the
// program has one.
func (p *Program) Find(e Expr) (at int, ok bool) {
	for i := range p.steps {
		if Same(p.steps[i].e, e) {
			return i, true
		}
	}
	return -1, false
}

// Vecs returns one worker's vectors for Run.
func (p *Program) Vecs() []*Vec {
	vecs := make([]*Vec, len(p.steps))
	for i := range vecs {
		vecs[i] = new(Vec)
	}
	return vecs
}

// Run runs every step over the selected rows of b (sel nil = all
// rows): afterwards vecs[at] holds the expression Add returned at for,
// densely, as a kernel's EvalVec would.
func (p *Program) Run(b *block.Block, sel []int32, vecs []*Vec) {
	n := selCount(b, sel)
	for i := range p.steps {
		s := &p.steps[i]
		if s.arith == nil {
			s.leaf.EvalVec(b, sel, vecs[i])
			continue
		}
		var lv, rv *Vec
		if s.l >= 0 {
			lv = vecs[s.l]
		}
		if s.r >= 0 {
			rv = vecs[s.r]
		}
		s.arith.combine(lv, rv, n, vecs[i])
	}
}

// Same reports whether a and b are the same expression: the same nodes
// over the same column indexes and literals. It knows the nodes a
// Program shares; any other node is the same only as itself.
func Same(a, b Expr) bool {
	switch x := a.(type) {
	case *Col:
		y, ok := b.(*Col)
		return ok && x.Idx == y.Idx
	case *Const:
		y, ok := b.(*Const)
		return ok && sameValue(x.V, y.V)
	case *Arith:
		y, ok := b.(*Arith)
		return ok && x.Op == y.Op && Same(x.L, y.L) && Same(x.R, y.R)
	case *Cmp:
		y, ok := b.(*Cmp)
		return ok && x.Op == y.Op && Same(x.L, y.L) && Same(x.R, y.R)
	case *Extract:
		y, ok := b.(*Extract)
		return ok && x.Part == y.Part && Same(x.E, y.E)
	case *AddMonths:
		y, ok := b.(*AddMonths)
		return ok && x.Months == y.Months && Same(x.E, y.E)
	}
	return a == b
}

// sameValue compares literals by kind and representation: a float by
// its bits, so 0 and -0 are two literals.
func sameValue(x, y types.Value) bool {
	return x.Kind == y.Kind && x.Null == y.Null && x.I == y.I && x.S == y.S &&
		math.Float64bits(x.F) == math.Float64bits(y.F)
}
