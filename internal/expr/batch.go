// Batch (vectorized) expression evaluation: kernels that evaluate a
// whole data block into typed column vectors under a selection vector,
// instead of boxing one types.Value per tuple per expression node.
//
// The design follows the block-at-a-time dataflow the paper assumes
// (Section 2.1): operators hand 64 KB blocks around, so the natural
// evaluation unit is the block. CompileBatch fuses the common shapes —
// column loads, constants, arithmetic over numeric columns, numeric
// comparisons, EXTRACT over dates — into tight loops over the block's
// fixed-stride payload; every other expression compiles to a fallback
// kernel that wraps the row-at-a-time Eval, so the batch path is total.
//
// Kernels are immutable after compilation and safe for concurrent use
// by many worker threads (the elastic iterator requirement): all
// per-evaluation state lives in caller-provided or pooled Vec scratch.
package expr

import (
	"sync"

	"repro/internal/block"
	"repro/internal/types"
)

// Vec is a typed column vector: the result of evaluating one expression
// over the selected rows of a block. Exactly one payload slice is
// populated, chosen by Kind (I for Int64 and Date, F for Float64, S for
// String). Null is always sized; record columns are never NULL, so it
// stays all-false except for expression-produced NULLs (x/0, CASE
// without ELSE).
type Vec struct {
	Kind types.Kind
	Null []bool
	I    []int64
	F    []float64
	S    []string
}

// alloc sizes the vector for kind over n rows and clears the null mask.
func (v *Vec) alloc(kind types.Kind, n int) {
	v.Kind = kind
	if cap(v.Null) < n {
		v.Null = make([]bool, n)
	} else {
		v.Null = v.Null[:n]
		for i := range v.Null {
			v.Null[i] = false
		}
	}
	switch kind {
	case types.Int64, types.Date:
		if cap(v.I) < n {
			v.I = make([]int64, n)
		} else {
			v.I = v.I[:n]
		}
	case types.Float64:
		if cap(v.F) < n {
			v.F = make([]float64, n)
		} else {
			v.F = v.F[:n]
		}
	case types.String:
		if cap(v.S) < n {
			v.S = make([]string, n)
		} else {
			v.S = v.S[:n]
		}
	}
}

// Len returns the vector length.
func (v *Vec) Len() int { return len(v.Null) }

// Value boxes entry i as a scalar, for interchange with row-at-a-time
// consumers (aggregate cells, the generic key encoder).
func (v *Vec) Value(i int) types.Value {
	if v.Null[i] {
		return types.NullVal(v.Kind)
	}
	switch v.Kind {
	case types.Int64:
		return types.IntVal(v.I[i])
	case types.Date:
		return types.DateVal(v.I[i])
	case types.Float64:
		return types.FloatVal(v.F[i])
	default:
		return types.StrVal(v.S[i])
	}
}

// AsInt coerces entry i to int64 (truncating floats), mirroring
// Value.AsInt.
func (v *Vec) AsInt(i int) int64 {
	if v.Kind == types.Float64 {
		return int64(v.F[i])
	}
	return v.I[i]
}

// AsFloat coerces entry i to float64, mirroring Value.AsFloat.
func (v *Vec) AsFloat(i int) float64 {
	if v.Kind == types.Float64 {
		return v.F[i]
	}
	return float64(v.I[i])
}

// vecPool recycles scratch vectors across kernel invocations.
var vecPool = sync.Pool{New: func() any { return new(Vec) }}

// GetVec borrows a scratch vector; return it with PutVec.
func GetVec() *Vec { return vecPool.Get().(*Vec) }

// PutVec returns a scratch vector to the pool.
func PutVec(v *Vec) { vecPool.Put(v) }

// BatchExpr evaluates an expression over a block into a column vector.
// sel selects the rows to evaluate (nil = all rows, in order); the
// output is dense — out entry j corresponds to row sel[j]. Kernels hold
// no mutable state, so one compiled kernel serves every worker thread.
type BatchExpr interface {
	EvalVec(b *block.Block, sel []int32, out *Vec)
	// Fused reports whether this kernel (including its children) is a
	// vectorized fast path rather than a row-at-a-time fallback wrapper.
	Fused() bool
}

// CompileBatch compiles e for block-at-a-time evaluation under sch. It
// never fails: expressions outside the fused shapes compile to a
// fallback kernel wrapping Eval, so callers can always take the batch
// path and inspect Fused for plan display.
func CompileBatch(e Expr, sch *types.Schema) BatchExpr {
	switch n := e.(type) {
	case *Col:
		c := sch.Cols[n.Idx]
		return &colKernel{off: sch.Offset(n.Idx), width: c.Width, kind: c.Kind}
	case *Const:
		return &constKernel{v: n.V}
	}
	// A tree over literals broadcasts its value. Fused kernels are
	// kind-faithful, so only a fold of the static kind qualifies (a CASE
	// whose arms differ in kind may fold to the other one).
	if v, ok := constOf(e); ok && v.Kind == e.Kind(sch) {
		return &constKernel{v: v}
	}
	switch n := e.(type) {
	case *Arith:
		l, r := CompileBatch(n.L, sch), CompileBatch(n.R, sch)
		lk, rk := n.L.Kind(sch), n.R.Kind(sch)
		if l.Fused() && r.Fused() && numericOrDate(lk) && numericOrDate(rk) {
			k := &arithKernel{op: n.Op, l: l, r: r, outKind: n.Kind(sch)}
			if k.outKind == types.Float64 && n.Op != Div {
				var lok, rok bool
				k.ls, k.lScalar, lok = floatOperand(l, lk)
				k.rs, k.rScalar, rok = floatOperand(r, rk)
				k.typed = lok && rok && !(k.lScalar && k.rScalar)
			}
			return k
		}
		return &rowKernel{e: e, sch: sch, kind: e.Kind(sch)}
	case *Cmp:
		l, r := CompileBatch(n.L, sch), CompileBatch(n.R, sch)
		lk, rk := n.L.Kind(sch), n.R.Kind(sch)
		if l.Fused() && r.Fused() && numericOrDate(lk) && numericOrDate(rk) {
			return &cmpKernel{op: n.Op, l: l, r: r,
				flt: lk == types.Float64 || rk == types.Float64}
		}
		return &rowKernel{e: e, sch: sch, kind: e.Kind(sch)}
	case *Extract:
		child := CompileBatch(n.E, sch)
		if child.Fused() && n.E.Kind(sch) == types.Date {
			return &extractKernel{part: n.Part, child: child}
		}
		return &rowKernel{e: e, sch: sch, kind: e.Kind(sch)}
	default:
		return &rowKernel{e: e, sch: sch, kind: e.Kind(sch)}
	}
}

func numericOrDate(k types.Kind) bool {
	return k == types.Int64 || k == types.Float64 || k == types.Date
}

// forEach drives a kernel loop over the selection: body receives the
// dense output index j and the block row index i.
func forEach(n int, sel []int32, body func(j, i int)) {
	if sel == nil {
		for i := 0; i < n; i++ {
			body(i, i)
		}
		return
	}
	for j, i := range sel {
		body(j, int(i))
	}
}

// selCount returns the number of selected rows.
func selCount(b *block.Block, sel []int32) int {
	if sel == nil {
		return b.NumTuples()
	}
	return len(sel)
}

// --- fused kernels ---------------------------------------------------------

// colKernel loads one column of the block into a vector: the gather that
// turns the row store's fixed strides into a contiguous typed array.
type colKernel struct {
	off   int
	width int
	kind  types.Kind
}

func (k *colKernel) Fused() bool { return true }

func (k *colKernel) EvalVec(b *block.Block, sel []int32, out *Vec) {
	n := selCount(b, sel)
	out.alloc(k.kind, n)
	st := b.Schema().Stride()
	buf := b.Bytes()
	switch k.kind {
	case types.Int64, types.Date:
		if sel == nil {
			for i := 0; i < n; i++ {
				out.I[i] = types.GetInt(buf[i*st:], k.off)
			}
		} else {
			for j, i := range sel {
				out.I[j] = types.GetInt(buf[int(i)*st:], k.off)
			}
		}
	case types.Float64:
		if sel == nil {
			for i := 0; i < n; i++ {
				out.F[i] = types.GetFloat(buf[i*st:], k.off)
			}
		} else {
			for j, i := range sel {
				out.F[j] = types.GetFloat(buf[int(i)*st:], k.off)
			}
		}
	case types.String:
		forEach(n, sel, func(j, i int) {
			out.S[j] = types.GetString(buf[i*st:], k.off, k.width)
		})
	}
}

// constKernel broadcasts a literal.
type constKernel struct{ v types.Value }

func (k *constKernel) Fused() bool { return true }

func (k *constKernel) EvalVec(b *block.Block, sel []int32, out *Vec) {
	n := selCount(b, sel)
	out.alloc(k.v.Kind, n)
	for i := 0; i < n; i++ {
		if k.v.Null {
			out.Null[i] = true
			continue
		}
		switch k.v.Kind {
		case types.Int64, types.Date:
			out.I[i] = k.v.I
		case types.Float64:
			out.F[i] = k.v.F
		case types.String:
			out.S[i] = k.v.S
		}
	}
}

// arithKernel is vectorized Arith.Eval over numeric/date children. The
// output kind is static (Arith.Kind), so each instance runs exactly one
// of four loops: date shift, integral, typed float, or float with
// coercion (and x/0 → NULL).
type arithKernel struct {
	op      ArithOp
	l, r    BatchExpr
	outKind types.Kind
	// typed marks float + - * whose operands are each a Float64 vector
	// or a non-NULL literal, at least one a vector: such a kernel runs
	// one typed loop per operator, the literal kept as the scalar ls or
	// rs rather than broadcast.
	typed            bool
	lScalar, rScalar bool
	ls, rs           float64
}

// floatOperand reports whether a child kernel of static kind k can feed
// the typed float loop, and, when it is a literal, its value as a
// scalar.
func floatOperand(c BatchExpr, k types.Kind) (v float64, scalar, ok bool) {
	if ck, isConst := c.(*constKernel); isConst {
		return ck.v.AsFloat(), true, !ck.v.Null && numericOrDate(ck.v.Kind)
	}
	return 0, false, k == types.Float64
}

func (k *arithKernel) Fused() bool { return true }

func (k *arithKernel) EvalVec(b *block.Block, sel []int32, out *Vec) {
	if k.typed {
		k.evalTyped(b, sel, out)
		return
	}
	lv, rv := GetVec(), GetVec()
	defer PutVec(lv)
	defer PutVec(rv)
	k.l.EvalVec(b, sel, lv)
	k.r.EvalVec(b, sel, rv)
	n := selCount(b, sel)
	out.alloc(k.outKind, n)
	switch k.outKind {
	case types.Date: // date ± integer days
		for i := 0; i < n; i++ {
			if lv.Null[i] || rv.Null[i] {
				out.Null[i] = true
				continue
			}
			if k.op == Add {
				out.I[i] = lv.I[i] + rv.AsInt(i)
			} else {
				out.I[i] = lv.I[i] - rv.AsInt(i)
			}
		}
	case types.Int64: // int op int, op != Div
		for i := 0; i < n; i++ {
			if lv.Null[i] || rv.Null[i] {
				out.Null[i] = true
				continue
			}
			switch k.op {
			case Add:
				out.I[i] = lv.I[i] + rv.I[i]
			case Sub:
				out.I[i] = lv.I[i] - rv.I[i]
			case Mul:
				out.I[i] = lv.I[i] * rv.I[i]
			}
		}
	default: // float
		for i := 0; i < n; i++ {
			if lv.Null[i] || rv.Null[i] {
				out.Null[i] = true
				continue
			}
			lf, rf := lv.AsFloat(i), rv.AsFloat(i)
			switch k.op {
			case Add:
				out.F[i] = lf + rf
			case Sub:
				out.F[i] = lf - rf
			case Mul:
				out.F[i] = lf * rf
			default:
				if rf == 0 {
					out.Null[i] = true
					continue
				}
				out.F[i] = lf / rf
			}
		}
	}
}

// evalTyped is the typed float loop: a row is NULL where a vector
// operand is, and its value is computed regardless, which costs less
// than a branch (a NULL entry's value is never read).
func (k *arithKernel) evalTyped(b *block.Block, sel []int32, out *Vec) {
	var lv, rv *Vec
	if !k.lScalar {
		lv = GetVec()
		defer PutVec(lv)
		k.l.EvalVec(b, sel, lv)
	}
	if !k.rScalar {
		rv = GetVec()
		defer PutVec(rv)
		k.r.EvalVec(b, sel, rv)
	}
	out.alloc(types.Float64, selCount(b, sel))
	switch {
	case lv != nil && rv != nil:
		floatVV(k.op, out.F, lv.F, rv.F)
		for i, ln := range lv.Null[:len(out.Null)] {
			out.Null[i] = ln || rv.Null[i]
		}
	case lv != nil:
		floatVS(k.op, out.F, lv.F, k.rs)
		copy(out.Null, lv.Null)
	default:
		floatSV(k.op, out.F, k.ls, rv.F)
		copy(out.Null, rv.Null)
	}
}

// floatVV, floatVS and floatSV compute out = l op r for op + - * over
// two vectors, a vector and a scalar, and a scalar and a vector.
func floatVV(op ArithOp, out, l, r []float64) {
	l, r = l[:len(out)], r[:len(out)]
	switch op {
	case Add:
		for i := range out {
			out[i] = l[i] + r[i]
		}
	case Sub:
		for i := range out {
			out[i] = l[i] - r[i]
		}
	default:
		for i := range out {
			out[i] = l[i] * r[i]
		}
	}
}

func floatVS(op ArithOp, out, l []float64, r float64) {
	l = l[:len(out)]
	switch op {
	case Add:
		for i := range out {
			out[i] = l[i] + r
		}
	case Sub:
		for i := range out {
			out[i] = l[i] - r
		}
	default:
		for i := range out {
			out[i] = l[i] * r
		}
	}
}

func floatSV(op ArithOp, out []float64, l float64, r []float64) {
	r = r[:len(out)]
	switch op {
	case Add:
		for i := range out {
			out[i] = l + r[i]
		}
	case Sub:
		for i := range out {
			out[i] = l - r[i]
		}
	default:
		for i := range out {
			out[i] = l * r[i]
		}
	}
}

// cmpKernel is vectorized Cmp.Eval over numeric/date children, yielding
// the boolean Int64 0/1 vector (NULL-in → NULL-out).
type cmpKernel struct {
	op   CmpOp
	l, r BatchExpr
	flt  bool // either side is Float64: compare as floats
}

func (k *cmpKernel) Fused() bool { return true }

func (k *cmpKernel) EvalVec(b *block.Block, sel []int32, out *Vec) {
	lv, rv := GetVec(), GetVec()
	defer PutVec(lv)
	defer PutVec(rv)
	k.l.EvalVec(b, sel, lv)
	k.r.EvalVec(b, sel, rv)
	n := selCount(b, sel)
	out.alloc(types.Int64, n)
	for i := 0; i < n; i++ {
		if lv.Null[i] || rv.Null[i] {
			out.Null[i] = true
			continue
		}
		var d int
		if k.flt {
			lf, rf := lv.AsFloat(i), rv.AsFloat(i)
			switch {
			case lf < rf:
				d = -1
			case lf > rf:
				d = 1
			}
		} else {
			switch {
			case lv.I[i] < rv.I[i]:
				d = -1
			case lv.I[i] > rv.I[i]:
				d = 1
			}
		}
		if cmpHolds(k.op, d) {
			out.I[i] = 1
		} else {
			out.I[i] = 0
		}
	}
}

func cmpHolds(op CmpOp, d int) bool {
	switch op {
	case EQ:
		return d == 0
	case NE:
		return d != 0
	case LT:
		return d < 0
	case LE:
		return d <= 0
	case GT:
		return d > 0
	default:
		return d >= 0
	}
}

// extractKernel is vectorized EXTRACT(YEAR|MONTH FROM date).
type extractKernel struct {
	part  DatePart
	child BatchExpr
}

func (k *extractKernel) Fused() bool { return true }

func (k *extractKernel) EvalVec(b *block.Block, sel []int32, out *Vec) {
	cv := GetVec()
	defer PutVec(cv)
	k.child.EvalVec(b, sel, cv)
	n := selCount(b, sel)
	out.alloc(types.Int64, n)
	for i := 0; i < n; i++ {
		if cv.Null[i] {
			out.Null[i] = true
			continue
		}
		if k.part == Year {
			out.I[i] = types.YearOf(cv.I[i])
		} else {
			out.I[i] = types.MonthOf(cv.I[i])
		}
	}
}

// --- fallback --------------------------------------------------------------

// rowKernel wraps row-at-a-time Eval so every expression still compiles
// to the batch interface: one Value box per tuple, exactly the cost the
// fused kernels avoid, but semantically identical by construction.
type rowKernel struct {
	e    Expr
	sch  *types.Schema
	kind types.Kind
}

func (k *rowKernel) Fused() bool { return false }

func (k *rowKernel) EvalVec(b *block.Block, sel []int32, out *Vec) {
	n := selCount(b, sel)
	out.alloc(k.kind, n)
	forEach(n, sel, func(j, i int) {
		v := k.e.Eval(b.Row(i), k.sch)
		if v.Null {
			out.Null[j] = true
			return
		}
		switch k.kind {
		case types.Int64, types.Date:
			out.I[j] = v.AsInt()
		case types.Float64:
			out.F[j] = v.AsFloat()
		case types.String:
			out.S[j] = v.S
		}
	})
}

// ProjVectorized reports whether every expression in the list compiles
// entirely to fused batch kernels under sch — the planner's Explain
// annotation for projections.
func ProjVectorized(es []Expr, sch *types.Schema) bool {
	for _, e := range es {
		if !CompileBatch(e, sch).Fused() {
			return false
		}
	}
	return true
}
