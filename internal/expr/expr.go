// Package expr implements the runtime expression engine: scalar
// expressions evaluated row-at-a-time against fixed-stride records. It
// covers the SQL surface exercised by the paper's evaluation queries —
// arithmetic, comparisons, boolean logic, LIKE / NOT LIKE, BETWEEN, IN,
// CASE WHEN, EXTRACT(YEAR/MONTH) and date ± month intervals — plus key
// extraction used by hash join, hash aggregation and repartitioning.
package expr

import (
	"fmt"
	"strings"

	"repro/internal/types"
)

// Expr is a compiled scalar expression. Eval must be safe for concurrent
// use by multiple worker threads: implementations hold no mutable state.
type Expr interface {
	// Eval computes the expression over one record laid out per sch.
	Eval(rec []byte, sch *types.Schema) types.Value
	// Kind reports the result kind under the given input schema.
	Kind(sch *types.Schema) types.Kind
	// String renders the expression for plan display.
	String() string
}

// --- column references and literals ---------------------------------------

// Col references an input column by position.
type Col struct {
	Idx  int
	Name string // display name; informational only
}

// NewCol returns a positional column reference.
func NewCol(idx int, name string) *Col { return &Col{Idx: idx, Name: name} }

// Eval implements Expr.
func (c *Col) Eval(rec []byte, sch *types.Schema) types.Value {
	return types.GetValue(rec, sch, c.Idx)
}

// Kind implements Expr.
func (c *Col) Kind(sch *types.Schema) types.Kind { return sch.Cols[c.Idx].Kind }

func (c *Col) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("$%d", c.Idx)
}

// Const is a literal value.
type Const struct{ V types.Value }

// NewConst wraps a literal.
func NewConst(v types.Value) *Const { return &Const{V: v} }

// Eval implements Expr.
func (c *Const) Eval([]byte, *types.Schema) types.Value { return c.V }

// Kind implements Expr.
func (c *Const) Kind(*types.Schema) types.Kind { return c.V.Kind }

func (c *Const) String() string { return c.V.String() }

// --- arithmetic ------------------------------------------------------------

// ArithOp enumerates arithmetic operators.
type ArithOp uint8

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

var arithOpNames = [...]string{"+", "-", "*", "/"}

// String renders the operator; out-of-range values render as
// "ArithOp(n)" instead of panicking.
func (op ArithOp) String() string {
	if int(op) >= len(arithOpNames) {
		return fmt.Sprintf("ArithOp(%d)", int(op))
	}
	return arithOpNames[op]
}

// Arith is a binary arithmetic expression. Int64 op Int64 stays integral
// except division, which promotes to float; Date ± Int64 shifts days.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// NewArith builds an arithmetic node.
func NewArith(op ArithOp, l, r Expr) *Arith { return &Arith{Op: op, L: l, R: r} }

// Eval implements Expr.
func (a *Arith) Eval(rec []byte, sch *types.Schema) types.Value {
	l := a.L.Eval(rec, sch)
	r := a.R.Eval(rec, sch)
	if l.Null || r.Null {
		return types.NullVal(a.Kind(sch))
	}
	// Date arithmetic: date ± integer days.
	if l.Kind == types.Date && a.Op != Mul && a.Op != Div {
		if a.Op == Add {
			return types.DateVal(l.I + r.AsInt())
		}
		return types.DateVal(l.I - r.AsInt())
	}
	if l.Kind == types.Int64 && r.Kind == types.Int64 && a.Op != Div {
		switch a.Op {
		case Add:
			return types.IntVal(l.I + r.I)
		case Sub:
			return types.IntVal(l.I - r.I)
		case Mul:
			return types.IntVal(l.I * r.I)
		}
	}
	lf, rf := l.AsFloat(), r.AsFloat()
	switch a.Op {
	case Add:
		return types.FloatVal(lf + rf)
	case Sub:
		return types.FloatVal(lf - rf)
	case Mul:
		return types.FloatVal(lf * rf)
	default:
		if rf == 0 {
			return types.NullVal(types.Float64)
		}
		return types.FloatVal(lf / rf)
	}
}

// Kind implements Expr.
func (a *Arith) Kind(sch *types.Schema) types.Kind {
	lk, rk := a.L.Kind(sch), a.R.Kind(sch)
	if lk == types.Date && a.Op != Mul && a.Op != Div {
		return types.Date
	}
	if lk == types.Int64 && rk == types.Int64 && a.Op != Div {
		return types.Int64
	}
	return types.Float64
}

func (a *Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R)
}

// --- comparisons and boolean logic -----------------------------------------

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

var cmpOpNames = [...]string{"=", "<>", "<", "<=", ">", ">="}

// String renders the operator; out-of-range values render as "CmpOp(n)"
// instead of panicking.
func (op CmpOp) String() string {
	if int(op) >= len(cmpOpNames) {
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
	return cmpOpNames[op]
}

// Cmp compares two expressions, yielding a boolean (Int64 0/1; NULL when
// either side is NULL).
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// NewCmp builds a comparison node.
func NewCmp(op CmpOp, l, r Expr) *Cmp { return &Cmp{Op: op, L: l, R: r} }

// Eval implements Expr.
func (c *Cmp) Eval(rec []byte, sch *types.Schema) types.Value {
	l := c.L.Eval(rec, sch)
	r := c.R.Eval(rec, sch)
	if l.Null || r.Null {
		return types.NullVal(types.Int64)
	}
	d := l.Compare(r)
	var ok bool
	switch c.Op {
	case EQ:
		ok = d == 0
	case NE:
		ok = d != 0
	case LT:
		ok = d < 0
	case LE:
		ok = d <= 0
	case GT:
		ok = d > 0
	case GE:
		ok = d >= 0
	}
	return boolVal(ok)
}

// Kind implements Expr.
func (c *Cmp) Kind(*types.Schema) types.Kind { return types.Int64 }

func (c *Cmp) String() string {
	return fmt.Sprintf("(%s %s %s)", c.L, c.Op, c.R)
}

func boolVal(ok bool) types.Value {
	if ok {
		return types.IntVal(1)
	}
	return types.IntVal(0)
}

// Truthy reports whether a value is a true boolean (non-NULL, non-zero).
func Truthy(v types.Value) bool {
	return !v.Null && ((v.Kind == types.Float64 && v.F != 0) || v.I != 0)
}

// And is a short-circuit conjunction over one or more conjuncts.
type And struct{ Terms []Expr }

// NewAnd builds a conjunction, flattening nested Ands.
func NewAnd(terms ...Expr) Expr {
	flat := make([]Expr, 0, len(terms))
	for _, t := range terms {
		if a, ok := t.(*And); ok {
			flat = append(flat, a.Terms...)
		} else if t != nil {
			flat = append(flat, t)
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return &And{Terms: flat}
}

// Eval implements Expr.
func (a *And) Eval(rec []byte, sch *types.Schema) types.Value {
	for _, t := range a.Terms {
		if !Truthy(t.Eval(rec, sch)) {
			return boolVal(false)
		}
	}
	return boolVal(true)
}

// Kind implements Expr.
func (a *And) Kind(*types.Schema) types.Kind { return types.Int64 }

func (a *And) String() string {
	parts := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		parts[i] = t.String()
	}
	return "(" + strings.Join(parts, " AND ") + ")"
}

// Or is a short-circuit disjunction.
type Or struct{ Terms []Expr }

// NewOr builds a disjunction.
func NewOr(terms ...Expr) Expr {
	if len(terms) == 1 {
		return terms[0]
	}
	return &Or{Terms: terms}
}

// Eval implements Expr.
func (o *Or) Eval(rec []byte, sch *types.Schema) types.Value {
	for _, t := range o.Terms {
		if Truthy(t.Eval(rec, sch)) {
			return boolVal(true)
		}
	}
	return boolVal(false)
}

// Kind implements Expr.
func (o *Or) Kind(*types.Schema) types.Kind { return types.Int64 }

func (o *Or) String() string {
	parts := make([]string, len(o.Terms))
	for i, t := range o.Terms {
		parts[i] = t.String()
	}
	return "(" + strings.Join(parts, " OR ") + ")"
}

// Not negates a boolean expression.
type Not struct{ E Expr }

// NewNot builds a negation.
func NewNot(e Expr) *Not { return &Not{E: e} }

// Eval implements Expr.
func (n *Not) Eval(rec []byte, sch *types.Schema) types.Value {
	v := n.E.Eval(rec, sch)
	if v.Null {
		return v
	}
	return boolVal(!Truthy(v))
}

// Kind implements Expr.
func (n *Not) Kind(*types.Schema) types.Kind { return types.Int64 }

func (n *Not) String() string { return "(NOT " + n.E.String() + ")" }

// --- BETWEEN / IN -----------------------------------------------------------

// Between tests lo <= e <= hi.
type Between struct{ E, Lo, Hi Expr }

// NewBetween builds a range test.
func NewBetween(e, lo, hi Expr) *Between { return &Between{E: e, Lo: lo, Hi: hi} }

// Eval implements Expr.
func (b *Between) Eval(rec []byte, sch *types.Schema) types.Value {
	v := b.E.Eval(rec, sch)
	lo := b.Lo.Eval(rec, sch)
	hi := b.Hi.Eval(rec, sch)
	if v.Null || lo.Null || hi.Null {
		return types.NullVal(types.Int64)
	}
	return boolVal(v.Compare(lo) >= 0 && v.Compare(hi) <= 0)
}

// Kind implements Expr.
func (b *Between) Kind(*types.Schema) types.Kind { return types.Int64 }

func (b *Between) String() string {
	return fmt.Sprintf("(%s BETWEEN %s AND %s)", b.E, b.Lo, b.Hi)
}

// In tests membership in a literal list.
type In struct {
	E    Expr
	List []types.Value
}

// NewIn builds a membership test.
func NewIn(e Expr, list []types.Value) *In { return &In{E: e, List: list} }

// Eval implements Expr.
func (in *In) Eval(rec []byte, sch *types.Schema) types.Value {
	v := in.E.Eval(rec, sch)
	if v.Null {
		return types.NullVal(types.Int64)
	}
	for _, c := range in.List {
		if v.Compare(c) == 0 {
			return boolVal(true)
		}
	}
	return boolVal(false)
}

// Kind implements Expr.
func (in *In) Kind(*types.Schema) types.Kind { return types.Int64 }

func (in *In) String() string {
	parts := make([]string, len(in.List))
	for i, v := range in.List {
		parts[i] = v.String()
	}
	return fmt.Sprintf("(%s IN (%s))", in.E, strings.Join(parts, ", "))
}

// --- CASE / EXTRACT ----------------------------------------------------------

// When is one CASE arm.
type When struct {
	Cond Expr
	Then Expr
}

// Case is a searched CASE expression.
type Case struct {
	Whens []When
	Else  Expr // may be nil → NULL
}

// NewCase builds a searched CASE.
func NewCase(whens []When, els Expr) *Case { return &Case{Whens: whens, Else: els} }

// Eval implements Expr.
func (c *Case) Eval(rec []byte, sch *types.Schema) types.Value {
	for _, w := range c.Whens {
		if Truthy(w.Cond.Eval(rec, sch)) {
			return w.Then.Eval(rec, sch)
		}
	}
	if c.Else != nil {
		return c.Else.Eval(rec, sch)
	}
	return types.NullVal(c.Kind(sch))
}

// Kind implements Expr.
func (c *Case) Kind(sch *types.Schema) types.Kind {
	return c.Whens[0].Then.Kind(sch)
}

func (c *Case) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, w := range c.Whens {
		fmt.Fprintf(&sb, " WHEN %s THEN %s", w.Cond, w.Then)
	}
	if c.Else != nil {
		fmt.Fprintf(&sb, " ELSE %s", c.Else)
	}
	sb.WriteString(" END")
	return sb.String()
}

// defaultStringWidth is the width StringWidth gives a string whose
// longest value is not known before execution: a $n slot.
const defaultStringWidth = 32

// StringWidth returns the width a fixed-width column needs to hold
// every value the string expression e produces under sch: a column's
// width, a literal's length, the widest arm of a CASE, a default of 32
// bytes for a $n slot, and never less than 1. The planner and the
// operators size output columns with it, so their schemas agree.
//
// They also agree after the executor substitutes literals for slots. A
// slot is typed String only as a comparison's operand, so none reaches
// a column as a string; as a CASE arm it is an integer, which counts,
// like the literal that replaces it, as the empty string it is stored
// as.
func StringWidth(e Expr, sch *types.Schema) int { return max(stringWidth(e, sch), 1) }

func stringWidth(e Expr, sch *types.Schema) int {
	if e == nil || e.Kind(sch) != types.String {
		return 0 // a NULL (CASE without ELSE) or a non-string arm stores as ""
	}
	switch n := e.(type) {
	case *Col:
		return sch.Cols[n.Idx].Width
	case *Const:
		return len(n.V.S)
	case *Case:
		w := stringWidth(n.Else, sch)
		for _, arm := range n.Whens {
			w = max(w, stringWidth(arm.Then, sch))
		}
		return w
	}
	return defaultStringWidth
}

// DatePart selects the component EXTRACT pulls out of a date.
type DatePart uint8

// Extractable date components.
const (
	Year DatePart = iota
	Month
)

// Extract implements EXTRACT(YEAR|MONTH FROM date).
type Extract struct {
	Part DatePart
	E    Expr
}

// NewExtract builds an EXTRACT node.
func NewExtract(part DatePart, e Expr) *Extract { return &Extract{Part: part, E: e} }

// Eval implements Expr.
func (e *Extract) Eval(rec []byte, sch *types.Schema) types.Value {
	v := e.E.Eval(rec, sch)
	if v.Null {
		return types.NullVal(types.Int64)
	}
	if e.Part == Year {
		return types.IntVal(types.YearOf(v.I))
	}
	return types.IntVal(types.MonthOf(v.I))
}

// Kind implements Expr.
func (e *Extract) Kind(*types.Schema) types.Kind { return types.Int64 }

func (e *Extract) String() string {
	p := "YEAR"
	if e.Part == Month {
		p = "MONTH"
	}
	return fmt.Sprintf("EXTRACT(%s FROM %s)", p, e.E)
}

// AddMonths shifts a date expression by calendar months (date ±
// INTERVAL 'n' MONTH|YEAR).
type AddMonths struct {
	E      Expr
	Months int
}

// NewAddMonths builds a month-shift node.
func NewAddMonths(e Expr, months int) *AddMonths { return &AddMonths{E: e, Months: months} }

// Eval implements Expr.
func (a *AddMonths) Eval(rec []byte, sch *types.Schema) types.Value {
	v := a.E.Eval(rec, sch)
	if v.Null {
		return v
	}
	return types.DateVal(types.AddMonths(v.I, a.Months))
}

// Kind implements Expr.
func (a *AddMonths) Kind(*types.Schema) types.Kind { return types.Date }

func (a *AddMonths) String() string {
	return fmt.Sprintf("(%s %+d months)", a.E, a.Months)
}
