// Batch predicate evaluation: predicates compile to kernels that turn a
// block into a selection vector — the surviving row indexes — instead
// of one boxed boolean per tuple. Filters then gather survivors with
// one bulk copy per column (block.AppendSelected) rather than
// row-at-a-time appends.
package expr

import (
	"bytes"
	"math"

	"repro/internal/block"
	"repro/internal/types"
)

// BatchPredicate filters the rows of a block.
//
// Select semantics: with sel == nil it scans all rows in order and
// appends the qualifying indexes to buf[:0], returning the (possibly
// regrown) slice. With sel != nil it narrows sel IN PLACE — writing
// survivors into sel's prefix and returning the truncation — which is
// safe because the write index never passes the read index; buf is
// ignored. Conjunctions exploit this to chain conjuncts over one
// buffer with no intermediate copies.
//
// Kernels hold no mutable state: one compiled predicate serves every
// worker thread of an elastic pool.
type BatchPredicate interface {
	Select(b *block.Block, sel []int32, buf []int32) []int32
	// Fused reports whether the whole predicate runs as vectorized fast
	// paths (no row-at-a-time fallback anywhere in the tree).
	Fused() bool
}

// CompilePredicate compiles a boolean expression for block-at-a-time
// filtering under sch. Fused shapes: column-op-constant and
// column-op-column comparisons over numeric/date/CHAR columns, BETWEEN
// over numeric/date columns, IN over integer columns, LIKE / NOT LIKE
// over CHAR columns, and conjunctions of the above. Everything else
// (OR, NOT, nested arithmetic, …) compiles to a row-at-a-time fallback
// wrapper, so compilation is total.
func CompilePredicate(e Expr, sch *types.Schema) BatchPredicate {
	switch n := e.(type) {
	case *And:
		preds := make([]BatchPredicate, len(n.Terms))
		for i, t := range n.Terms {
			preds[i] = CompilePredicate(t, sch)
		}
		return &andPred{preds: preds}
	case *Cmp:
		if p := compileCmpPred(n, sch); p != nil {
			return p
		}
	case *Between:
		if p := compileBetweenPred(n, sch); p != nil {
			return p
		}
	case *In:
		if p := compileInPred(n, sch); p != nil {
			return p
		}
	case *Like:
		if col, ok := n.E.(*Col); ok && sch.Cols[col.Idx].Kind == types.String {
			return &likePred{col: col.Idx,
				width: sch.Cols[col.Idx].Width, like: n}
		}
	}
	return &rowPred{e: e, sch: sch}
}

// PredVectorized reports whether the predicate compiles entirely to
// fused kernels under sch — the planner's Explain annotation.
func PredVectorized(e Expr, sch *types.Schema) bool {
	return CompilePredicate(e, sch).Fused()
}

// selFilter runs the shared selection-vector scaffolding around a
// per-row verdict on row i: append-scan when sel is nil, in-place
// narrowing otherwise.
func selFilter(b *block.Block, sel []int32, buf []int32, keep func(i int) bool) []int32 {
	if sel == nil {
		out := buf[:0]
		n := b.NumTuples()
		for i := 0; i < n; i++ {
			if keep(i) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	w := 0
	for _, i := range sel {
		if keep(int(i)) {
			sel[w] = i
			w++
		}
	}
	return sel[:w]
}

// --- fused comparison shapes -----------------------------------------------

func compileCmpPred(n *Cmp, sch *types.Schema) BatchPredicate {
	lc, lok := n.L.(*Col)
	rc, rok := n.R.(*Col)
	lv, lcOk := constOf(n.L)
	rv, rcOk := constOf(n.R)
	switch {
	case lok && rcOk: // col op const
		return colConstCmp(n.Op, sch, lc, rv)
	case lcOk && rok: // const op col → col flip(op) const
		return colConstCmp(flipCmp(n.Op), sch, rc, lv)
	case lok && rok: // col op col
		return colColCmp(n.Op, sch, lc, rc)
	}
	return nil
}

// constOf returns the value of an expression that reads no column and
// no parameter: a literal, or a tree over literals (date '1998-12-01' -
// interval '90' day, a bound $1 + interval '3' month), folded here by
// evaluating it once. Kernels are compiled after SubstParams, so bound
// parameters are literals by then.
func constOf(e Expr) (types.Value, bool) {
	switch n := e.(type) {
	case *Const:
		return n.V, true
	case *Col:
		return types.Value{}, false
	}
	if !rowFree(e) {
		return types.Value{}, false
	}
	return e.Eval(nil, nil), true
}

// rowFree reports whether e evaluates to the same value for every row:
// no node of it is a Col or a Param.
func rowFree(e Expr) bool {
	free := true
	Walk(e, func(x Expr) {
		switch x.(type) {
		case *Col, *Param:
			free = false
		}
	})
	return free
}

// flipCmp mirrors an operator across swapped operands: c op x ≡ x op' c.
func flipCmp(op CmpOp) CmpOp {
	switch op {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	default: // EQ, NE are symmetric
		return op
	}
}

func colConstCmp(op CmpOp, sch *types.Schema, c *Col, v types.Value) BatchPredicate {
	if v.Null {
		return nil // NULL comparisons never qualify; keep row semantics
	}
	col := sch.Cols[c.Idx]
	switch col.Kind {
	case types.Int64, types.Date:
		if v.Kind == types.Float64 {
			// Mixed int/float compares as float (Value.Compare).
			return floatCmpRange(c.Idx, op, v.F, true)
		}
		if v.Kind == types.Int64 || v.Kind == types.Date {
			return intCmpRange(c.Idx, op, v.I)
		}
	case types.Float64:
		if v.Kind.Numeric() || v.Kind == types.Date {
			return floatCmpRange(c.Idx, op, v.AsFloat(), false)
		}
	case types.String:
		if v.Kind == types.String {
			return &cmpStrConstPred{col: c.Idx, width: col.Width, op: op, c: []byte(v.S)}
		}
	}
	return nil
}

func colColCmp(op CmpOp, sch *types.Schema, l, r *Col) BatchPredicate {
	lk, rk := sch.Cols[l.Idx].Kind, sch.Cols[r.Idx].Kind
	if !numericOrDate(lk) || !numericOrDate(rk) {
		return nil
	}
	return &cmpColColPred{
		l: l.Idx, r: r.Idx, op: op,
		flt:  lk == types.Float64 || rk == types.Float64,
		lInt: lk != types.Float64, rInt: rk != types.Float64,
	}
}

// A numeric column against constants is a range test: every comparison
// operator and BETWEEN say "x in [lo, hi]", or for <> its complement. So
// two kernels serve all seven shapes, and neither has an operator left
// to dispatch on per row. Their loops are written out rather than handed
// to selFilter as a closure: the verdict is two flag-setting compares,
// and the row index is stored unconditionally and kept by advancing the
// write position by the verdict, so the loop has no branch that depends
// on the data — a filter costs the same at 1 %, 50 % and 99 %
// selectivity, where a branch per row costs most when it is least
// predictable.

// b2i is 1 for true; the compiler turns it into a flag move, not a jump.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// inRange is 1 when lo <= x <= hi.
func inRange[T int64 | float64](x, lo, hi T) int { return b2i(x >= lo) & b2i(x <= hi) }

// selAll returns buf resized to hold one index per row of a block.
func selAll(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// intRangePred: Int64/Date column in [lo, hi] (not in, when inv is 1).
// lo > hi is the empty range.
type intRangePred struct {
	col    int
	lo, hi int64
	inv    int
}

// intCmpRange states column op c as a range over int64.
func intCmpRange(col int, op CmpOp, c int64) *intRangePred {
	p := &intRangePred{col: col, lo: math.MinInt64, hi: math.MaxInt64}
	switch op {
	case EQ:
		p.lo, p.hi = c, c
	case NE:
		p.lo, p.hi, p.inv = c, c, 1
	case LE:
		p.hi = c
	case GE:
		p.lo = c
	case LT:
		if p.hi = c - 1; c == math.MinInt64 {
			p.lo, p.hi = 0, -1
		}
	case GT:
		if p.lo = c + 1; c == math.MaxInt64 {
			p.lo, p.hi = 0, -1
		}
	}
	return p
}

func (p *intRangePred) Fused() bool { return true }

func (p *intRangePred) Select(b *block.Block, sel []int32, buf []int32) []int32 {
	lo, hi, inv := p.lo, p.hi, p.inv
	col, w := b.Col(p.col), 0
	if lo == hi && inv == 0 && sel == nil {
		return p.selectEqual(col, b.NumTuples(), buf)
	}
	if sel == nil {
		n := b.NumTuples()
		out := selAll(buf, n)
		for i := 0; i < n; i++ {
			x := types.GetInt(col, i*8)
			out[w] = int32(i)
			w += inRange(x, lo, hi) ^ inv
		}
		return out[:w]
	}
	for _, i := range sel {
		x := types.GetInt(col, int(i)*8)
		sel[w] = i
		w += inRange(x, lo, hi) ^ inv
	}
	return sel[:w]
}

// selectEqual is Select for column = c over a whole block: it writes
// only the rows that match, where the range loop writes an entry per
// row. BenchmarkFilterEqualBatch times it; against the range loop it
// read a row in about half the time, whether the equality kept one row
// in a thousand or every other row (EXPERIMENTS.md).
func (p *intRangePred) selectEqual(col []byte, n int, buf []int32) []int32 {
	c, w := p.lo, 0
	out := selAll(buf, n)
	for i := 0; i < n; i++ {
		if types.GetInt(col, i*8) == c {
			out[w] = int32(i)
			w++
		}
	}
	return out[:w]
}

// floatRangePred: Float64 column, or an integer one compared as float,
// in [lo, hi] (not in, when inv is 1). A NaN is in no range, so it fails
// every comparison but <>, as it does under the language's operators.
type floatRangePred struct {
	col    int
	lo, hi float64
	inv    int
	colInt bool // decode the column as int64, compare as float
}

// floatCmpRange states column op c as a closed range over float64: x < c
// is x <= the float just below c, there being none in between.
func floatCmpRange(col int, op CmpOp, c float64, colInt bool) *floatRangePred {
	p := &floatRangePred{col: col, lo: math.Inf(-1), hi: math.Inf(1), colInt: colInt}
	switch op {
	case EQ:
		p.lo, p.hi = c, c
	case NE:
		p.lo, p.hi, p.inv = c, c, 1
	case LE:
		p.hi = c
	case GE:
		p.lo = c
	case LT:
		if p.hi = math.Nextafter(c, math.Inf(-1)); math.IsInf(c, -1) {
			p.lo, p.hi = 0, -1
		}
	case GT:
		if p.lo = math.Nextafter(c, math.Inf(1)); math.IsInf(c, 1) {
			p.lo, p.hi = 0, -1
		}
	}
	return p
}

func (p *floatRangePred) Fused() bool { return true }

func (p *floatRangePred) Select(b *block.Block, sel []int32, buf []int32) []int32 {
	lo, hi, inv, colInt := p.lo, p.hi, p.inv, p.colInt
	col, w := b.Col(p.col), 0
	// colInt is the same for every row: a branch, but not one the data
	// decides.
	get := func(i int) float64 {
		if colInt {
			return float64(types.GetInt(col, i*8))
		}
		return types.GetFloat(col, i*8)
	}
	if sel == nil {
		n := b.NumTuples()
		out := selAll(buf, n)
		for i := 0; i < n; i++ {
			x := get(i)
			out[w] = int32(i)
			w += inRange(x, lo, hi) ^ inv
		}
		return out[:w]
	}
	for _, i := range sel {
		x := get(int(i))
		sel[w] = i
		w += inRange(x, lo, hi) ^ inv
	}
	return sel[:w]
}

// cmpStrConstPred: CHAR column op string constant, compared on the
// NUL-trimmed bytes — no per-row string allocation.
type cmpStrConstPred struct {
	col, width int
	op         CmpOp
	c          []byte
}

func (p *cmpStrConstPred) Fused() bool { return true }

func (p *cmpStrConstPred) Select(b *block.Block, sel []int32, buf []int32) []int32 {
	col := b.Col(p.col)
	return selFilter(b, sel, buf, func(i int) bool {
		d := bytes.Compare(types.GetStringBytes(col, i*p.width, p.width), p.c)
		return cmpHolds(p.op, d)
	})
}

// cmpColColPred: numeric/date column op numeric/date column.
type cmpColColPred struct {
	l, r       int // columns
	op         CmpOp
	flt        bool // compare as floats
	lInt, rInt bool // decode sides as int64
}

func (p *cmpColColPred) Fused() bool { return true }

func (p *cmpColColPred) Select(b *block.Block, sel []int32, buf []int32) []int32 {
	lc, rc := b.Col(p.l), b.Col(p.r)
	return selFilter(b, sel, buf, func(i int) bool {
		if !p.flt {
			l, r := types.GetInt(lc, i*8), types.GetInt(rc, i*8)
			var d int
			switch {
			case l < r:
				d = -1
			case l > r:
				d = 1
			}
			return cmpHolds(p.op, d)
		}
		var l, r float64
		if p.lInt {
			l = float64(types.GetInt(lc, i*8))
		} else {
			l = types.GetFloat(lc, i*8)
		}
		if p.rInt {
			r = float64(types.GetInt(rc, i*8))
		} else {
			r = types.GetFloat(rc, i*8)
		}
		var d int
		switch {
		case l < r:
			d = -1
		case l > r:
			d = 1
		}
		return cmpHolds(p.op, d)
	})
}

// --- BETWEEN / IN / LIKE ----------------------------------------------------

func compileBetweenPred(n *Between, sch *types.Schema) BatchPredicate {
	col, ok := n.E.(*Col)
	if !ok {
		return nil
	}
	lo, okLo := constOf(n.Lo)
	hi, okHi := constOf(n.Hi)
	if !okLo || !okHi || lo.Null || hi.Null {
		return nil
	}
	k := sch.Cols[col.Idx].Kind
	allInt := k != types.Float64 && lo.Kind != types.Float64 && hi.Kind != types.Float64
	switch {
	case !numericOrDate(k) || !numericOrDate(lo.Kind) || !numericOrDate(hi.Kind):
		return nil
	case allInt:
		return &intRangePred{col: col.Idx, lo: lo.I, hi: hi.I}
	default:
		return &floatRangePred{col: col.Idx, lo: lo.AsFloat(), hi: hi.AsFloat(),
			colInt: k != types.Float64}
	}
}

func compileInPred(n *In, sch *types.Schema) BatchPredicate {
	col, ok := n.E.(*Col)
	if !ok {
		return nil
	}
	k := sch.Cols[col.Idx].Kind
	if k != types.Int64 && k != types.Date {
		return nil
	}
	list := make([]int64, 0, len(n.List))
	for _, v := range n.List {
		if v.Null || (v.Kind != types.Int64 && v.Kind != types.Date) {
			return nil
		}
		list = append(list, v.I)
	}
	return &inIntPred{col: col.Idx, list: list}
}

// inIntPred: integer column IN a small literal list (linear scan: the
// workloads' IN lists hold a handful of codes).
type inIntPred struct {
	col  int
	list []int64
}

func (p *inIntPred) Fused() bool { return true }

func (p *inIntPred) Select(b *block.Block, sel []int32, buf []int32) []int32 {
	col, list := b.Col(p.col), p.list
	return selFilter(b, sel, buf, func(i int) bool {
		x := types.GetInt(col, i*8)
		for _, c := range list {
			if x == c {
				return true
			}
		}
		return false
	})
}

// likePred: LIKE / NOT LIKE over a fixed-width CHAR column, matching in
// place: a %…% pattern over the whole field (Like.matchField), any other
// over the NUL-trimmed bytes.
type likePred struct {
	col, width int
	like       *Like
}

func (p *likePred) Fused() bool { return true }

func (p *likePred) Select(b *block.Block, sel []int32, buf []int32) []int32 {
	col, w := b.Col(p.col), p.width
	if p.like.contains {
		return selFilter(b, sel, buf, func(i int) bool {
			return p.like.matchField(col[i*w:i*w+w]) != p.like.Negate
		})
	}
	return selFilter(b, sel, buf, func(i int) bool {
		return p.like.MatchBytes(types.GetStringBytes(col, i*w, w)) != p.like.Negate
	})
}

// --- conjunction and fallback ----------------------------------------------

// andPred chains conjuncts over one selection vector: the first conjunct
// scans the block, each later one narrows the survivors in place — the
// short-circuit of And.Eval, lifted to whole blocks.
type andPred struct{ preds []BatchPredicate }

func (p *andPred) Fused() bool {
	for _, c := range p.preds {
		if !c.Fused() {
			return false
		}
	}
	return true
}

func (p *andPred) Select(b *block.Block, sel []int32, buf []int32) []int32 {
	out := p.preds[0].Select(b, sel, buf)
	for _, c := range p.preds[1:] {
		if len(out) == 0 {
			return out
		}
		out = c.Select(b, out, nil)
	}
	return out
}

// rowPred is the total fallback: Truthy(Eval) of each gathered row
// under the selection scaffolding, so OR / NOT / computed predicates still flow
// through selection vectors and bulk gathers.
type rowPred struct {
	e   Expr
	sch *types.Schema
}

func (p *rowPred) Fused() bool { return false }

func (p *rowPred) Select(b *block.Block, sel []int32, buf []int32) []int32 {
	var rec []byte
	return selFilter(b, sel, buf, func(i int) bool {
		rec = b.ReadRow(i, rec)
		return Truthy(p.e.Eval(rec, p.sch))
	})
}
