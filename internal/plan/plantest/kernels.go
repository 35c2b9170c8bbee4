// Package plantest holds a compiled plan's batch kernels to
// row-at-a-time evaluation. Tests import it; the product does not.
package plantest

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/block"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
)

// CheckKernels takes every expression p hands to an iterator — scan and
// filter predicates, projected expressions, aggregate arguments, join,
// group and partition keys — and runs it through the kernel its
// iterator runs (CompilePredicate, CompileBatch, NewBatchKeyEncoder) and
// through Expr.Eval row by row, over three seeded random blocks of the
// expression's input schema, with and without a selection vector. It
// adds the expressions it checked to counts by role ("pred", "value",
// "keys") and returns one error for each expression and block on which
// the kernel and Eval disagree: in selection, values, key bytes or
// hashes.
func CheckKernels(p *plan.Plan, counts map[string]int) []error {
	var errs []error
	for _, x := range planExprs(p) {
		counts[x.role]++
		for seed := int64(1); seed <= 3; seed++ {
			b := randomBlock(rand.New(rand.NewSource(seed)), x.sch, constantsOf(x.exprs))
			if err := x.check(b); err != nil {
				errs = append(errs, fmt.Errorf("%s %v over %v (block seed %d): %w", x.role, x.exprs, x.sch.Cols, seed, err))
			}
		}
	}
	return errs
}

// planExpr is what one iterator is handed: a predicate, a value, or a
// key list, and the schema it reads.
type planExpr struct {
	role  string // "pred", "value" or "keys"
	exprs []expr.Expr
	sch   *types.Schema
}

// planExprs lists the expressions of every operator and every
// repartition of p.
func planExprs(p *plan.Plan) []planExpr {
	var out []planExpr
	add := func(role string, sch *types.Schema, es ...expr.Expr) {
		out = append(out, planExpr{role: role, exprs: es, sch: sch})
	}
	for _, seg := range p.Segments {
		plan.Walk(seg.Root, func(op plan.PhysOp) {
			switch n := op.(type) {
			case *plan.PScan:
				if n.Pred != nil {
					add("pred", n.Sch, n.Pred)
				}
			case *plan.PFilter:
				add("pred", n.Child.Schema(), n.Pred)
			case *plan.PProject:
				for _, e := range n.Exprs {
					add("value", n.Child.Schema(), e)
				}
			case *plan.PHashJoin:
				add("keys", n.Build.Schema(), n.BuildKeys...)
				add("keys", n.Probe.Schema(), n.ProbeKeys...)
				for _, s := range n.Aggs {
					if s.Arg != nil {
						add("value", n.Probe.Schema(), s.Arg)
					}
				}
			case *plan.PHashAgg:
				add("keys", n.Child.Schema(), n.Keys...)
				for _, s := range n.Specs {
					if s.Arg != nil {
						add("value", n.Child.Schema(), s.Arg)
					}
				}
			}
		})
		if seg.Out != nil && seg.Out.PartKeys != nil {
			add("keys", seg.Root.Schema(), seg.Out.PartKeys...)
		}
	}
	return out
}

// check runs the expression's kernel and Eval over b, all rows and the
// odd ones.
func (x planExpr) check(b *block.Block) error {
	var odd []int32
	for i := 1; i < b.NumTuples(); i += 2 {
		odd = append(odd, int32(i))
	}
	for _, sel := range [][]int32{nil, odd} {
		rows := sel
		if rows == nil {
			rows = make([]int32, b.NumTuples())
			for i := range rows {
				rows[i] = int32(i)
			}
		}
		var err error
		switch x.role {
		case "pred":
			err = checkPred(x.exprs[0], x.sch, b, sel, rows)
		case "value":
			err = checkValue(x.exprs[0], x.sch, b, sel, rows)
		default:
			err = checkKeys(x.exprs, x.sch, b, sel, rows)
		}
		if err != nil {
			return fmt.Errorf("sel=%v: %w", sel != nil, err)
		}
	}
	return nil
}

func checkPred(e expr.Expr, sch *types.Schema, b *block.Block, sel, rows []int32) error {
	var want []int32
	for _, r := range rows {
		if expr.Truthy(e.Eval(b.Row(int(r)), sch)) {
			want = append(want, r)
		}
	}
	got := expr.CompilePredicate(e, sch).Select(b, slices.Clone(sel), nil)
	if !slices.Equal(got, want) {
		return fmt.Errorf("kernel selects %v, Eval %v", got, want)
	}
	return nil
}

func checkValue(e expr.Expr, sch *types.Schema, b *block.Block, sel, rows []int32) error {
	k := e.Kind(sch)
	var v expr.Vec
	expr.CompileBatch(e, sch).EvalVec(b, sel, &v)
	if v.Len() != len(rows) || v.Kind != k {
		return fmt.Errorf("kernel gave %d %v values, want %d %v", v.Len(), v.Kind, len(rows), k)
	}
	for j, r := range rows {
		want := e.Eval(b.Row(int(r)), sch)
		if want.Null || v.Null[j] {
			if want.Null != v.Null[j] {
				return fmt.Errorf("row %d: kernel NULL=%v, Eval %v", r, v.Null[j], want)
			}
			continue
		}
		var same bool
		switch k {
		case types.Float64:
			g, w := v.F[j], want.AsFloat()
			same = math.Float64bits(g) == math.Float64bits(w) || math.IsNaN(g) && math.IsNaN(w)
		case types.String:
			same = v.S[j] == want.S
		default:
			same = v.I[j] == want.AsInt()
		}
		if !same {
			return fmt.Errorf("row %d: kernel %v, Eval %v", r, v.Value(j), want)
		}
	}
	return nil
}

func checkKeys(es []expr.Expr, sch *types.Schema, b *block.Block, sel, rows []int32) error {
	enc, row := expr.NewBatchKeyEncoder(es, sch), expr.NewKeyEncoder(es)
	if n := enc.EncodeBlock(b, sel); n != len(rows) {
		return fmt.Errorf("encoded %d keys, want %d", n, len(rows))
	}
	for j, r := range rows {
		rec := b.Row(int(r))
		if got, want := enc.Key(j), row.Encode(rec, sch); !bytes.Equal(got, want) {
			return fmt.Errorf("row %d: key %x, row encoder %x", r, got, want)
		}
		if got, want := enc.Hash(j), row.Hash(rec, sch); got != want {
			return fmt.Errorf("row %d: hash %x, row encoder %x", r, got, want)
		}
	}
	return nil
}

// constants collects, by kind, the literals of some expressions and the
// literal runs of their LIKE patterns: the values a random block must
// hit for predicates to select some rows and not others.
type constants struct {
	byKind map[types.Kind][]types.Value
	frags  []string
}

func constantsOf(es []expr.Expr) *constants {
	cs := &constants{byKind: map[types.Kind][]types.Value{}}
	var visit func(e expr.Expr)
	visit = func(e expr.Expr) {
		var kids []expr.Expr
		switch n := e.(type) {
		case *expr.Const:
			cs.byKind[n.V.Kind] = append(cs.byKind[n.V.Kind], n.V)
		case *expr.In:
			for _, v := range n.List {
				cs.byKind[v.Kind] = append(cs.byKind[v.Kind], v)
			}
			kids = []expr.Expr{n.E}
		case *expr.Like:
			for _, f := range bytes.FieldsFunc([]byte(n.Pattern), func(r rune) bool { return r == '%' || r == '_' }) {
				cs.frags = append(cs.frags, string(f))
			}
			kids = []expr.Expr{n.E}
		case *expr.Arith:
			kids = []expr.Expr{n.L, n.R}
		case *expr.Cmp:
			kids = []expr.Expr{n.L, n.R}
		case *expr.And:
			kids = n.Terms
		case *expr.Or:
			kids = n.Terms
		case *expr.Not:
			kids = []expr.Expr{n.E}
		case *expr.Between:
			kids = []expr.Expr{n.E, n.Lo, n.Hi}
		case *expr.Case:
			for _, w := range n.Whens {
				kids = append(kids, w.Cond, w.Then)
			}
			if n.Else != nil {
				kids = append(kids, n.Else)
			}
		case *expr.Extract:
			kids = []expr.Expr{n.E}
		case *expr.AddMonths:
			kids = []expr.Expr{n.E}
			// A shifted date meets a column on the other side of the
			// comparison: aim values there too.
			if c, ok := n.E.(*expr.Const); ok {
				d := types.AddMonths(c.V.I, n.Months)
				cs.byKind[types.Date] = append(cs.byKind[types.Date], types.DateVal(d))
			}
		}
		for _, k := range kids {
			visit(k)
		}
	}
	for _, e := range es {
		visit(e)
	}
	return cs
}

// randomBlock fills a block of sch with 300 rows: each value near one of
// the expressions' constants of its kind half the time, random in a
// small domain otherwise.
func randomBlock(rng *rand.Rand, sch *types.Schema, cs *constants) *block.Block {
	const rows = 300
	b := block.New(sch, rows*sch.Stride(), nil)
	day0 := types.MustParseDate("1992-01-01")
	for i := 0; i < rows; i++ {
		rec := b.AppendRowTo()
		for c, col := range sch.Cols {
			var v types.Value
			near := cs.byKind[col.Kind]
			if col.Kind == types.Date {
				near = append(near, cs.byKind[types.Int64]...)
			}
			switch {
			case col.Kind == types.String:
				v = types.StrVal(randomString(rng, col.Width, cs))
			case len(near) > 0 && rng.Intn(2) == 0:
				v = near[rng.Intn(len(near))]
				switch col.Kind {
				case types.Float64:
					v = types.FloatVal(v.AsFloat() + float64(rng.Intn(3)-1)/100)
				default:
					v = types.Value{Kind: col.Kind, I: v.AsInt() + int64(rng.Intn(3)-1)}
				}
			case col.Kind == types.Float64:
				v = types.FloatVal(float64(rng.Intn(200000)-1000) / 100)
			case col.Kind == types.Date:
				v = types.DateVal(day0 + int64(rng.Intn(2600)))
			default:
				v = types.IntVal(int64(rng.Intn(64) - 4))
			}
			types.PutValue(rec, sch, c, v)
		}
	}
	return b
}

// randomString is one of the constants, a LIKE fragment in random
// surroundings, or random letters, cut to width.
func randomString(rng *rand.Rand, width int, cs *constants) string {
	letters := func(n int) string {
		s := make([]byte, n)
		for i := range s {
			s[i] = "abcxyz ABC#-"[rng.Intn(12)]
		}
		return string(s)
	}
	var s string
	switch strs := cs.byKind[types.String]; {
	case len(strs) > 0 && rng.Intn(3) == 0:
		s = strs[rng.Intn(len(strs))].S
	case len(cs.frags) > 0 && rng.Intn(2) == 0:
		s = letters(rng.Intn(3)) + cs.frags[rng.Intn(len(cs.frags))] + letters(rng.Intn(3))
		if rng.Intn(2) == 0 {
			s += cs.frags[rng.Intn(len(cs.frags))]
		}
	default:
		s = letters(rng.Intn(width + 1))
	}
	return s[:min(len(s), width)]
}
