package expr

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/block"
	"repro/internal/types"
)

// batchTestSchema covers every column kind the kernels dispatch on.
func batchTestSchema() *types.Schema {
	return types.NewSchema(
		types.Col("a", types.Int64),
		types.Col("b", types.Int64),
		types.Col("f", types.Float64),
		types.Col("g", types.Float64),
		types.Col("d", types.Date),
		types.Char("s", 10),
	)
}

// fillBatchBlock populates a block with deterministic pseudo-random
// rows, including zeros (division-by-zero NULLs), negative values and
// string variety for LIKE.
func fillBatchBlock(sch *types.Schema, n int, seed int64) *block.Block {
	rng := rand.New(rand.NewSource(seed))
	b := block.New(sch, n*sch.Stride(), nil)
	words := []string{"alpha", "beta", "gamma", "alphabet", "", "ab", "a%b", "a_b", "beta-max"}
	for i := 0; i < n; i++ {
		r := make([]byte, b.Schema().Stride())
		types.PutValue(r, sch, 0, types.IntVal(int64(rng.Intn(100)-50)))
		types.PutValue(r, sch, 1, types.IntVal(int64(rng.Intn(10))))
		types.PutValue(r, sch, 2, types.FloatVal(float64(rng.Intn(200)-100)/4))
		types.PutValue(r, sch, 3, types.FloatVal(float64(rng.Intn(5)))) // zeros for x/0
		types.PutValue(r, sch, 4, types.DateVal(int64(14000+rng.Intn(800))))
		types.PutValue(r, sch, 5, types.StrVal(words[rng.Intn(len(words))]))
		b.AppendRows(r)
	}
	return b
}

func col(sch *types.Schema, name string) *Col {
	return NewCol(sch.ColIndex(name), name)
}

// batchExprCases returns expressions spanning every fused kernel shape
// plus the row fallback (CASE, OR, NOT, LIKE inside projection).
func batchExprCases(sch *types.Schema) []Expr {
	a, b, f, g := col(sch, "a"), col(sch, "b"), col(sch, "f"), col(sch, "g")
	d, s := col(sch, "d"), col(sch, "s")
	return []Expr{
		a, f, d, s,
		NewConst(types.IntVal(7)),
		NewConst(types.StrVal("alpha")),
		NewArith(Add, a, b),
		NewArith(Sub, a, NewConst(types.IntVal(3))),
		NewArith(Mul, a, f),
		NewArith(Div, f, g),                          // g hits 0 → NULL
		NewArith(Div, a, b),                          // int/int division → float, b hits 0 → NULL
		NewArith(Add, d, NewConst(types.IntVal(30))), // date + days
		NewCmp(LT, a, b),
		NewCmp(GE, f, NewConst(types.FloatVal(2.5))),
		NewCmp(EQ, a, f), // mixed int/float compare
		NewCmp(NE, d, NewConst(types.DateVal(14100))),
		NewExtract(Year, d),
		NewExtract(Month, d),
		// Trees over literals fold to a broadcast, a NULL one (1/0) too.
		NewAddMonths(NewConst(types.DateVal(14400)), -3),
		NewArith(Add, a, NewArith(Mul, NewConst(types.IntVal(3)), NewConst(types.IntVal(4)))),
		NewArith(Mul, f, NewArith(Div, NewConst(types.IntVal(1)), NewConst(types.IntVal(0)))),
		NewCmp(LT, d, NewArith(Sub, NewConst(types.DateVal(14400)), NewConst(types.IntVal(90)))),
		// Fallback shapes.
		NewCase([]When{{Cond: NewCmp(GT, a, b), Then: a}}, b),
		NewCase([]When{{Cond: NewCmp(GT, f, g), Then: f}}, nil), // no ELSE → NULL
		NewLike(s, "alpha%", false),
		NewLike(s, "%a_b%", true),
		NewOr(NewCmp(LT, a, NewConst(types.IntVal(0))), NewCmp(GT, b, NewConst(types.IntVal(5)))),
		NewNot(NewCmp(EQ, b, NewConst(types.IntVal(0)))),
	}
}

// TestCompileBatchMatchesEval verifies every kernel against row-at-a-time
// Eval on every row, both with sel == nil and under a sparse selection.
func TestCompileBatchMatchesEval(t *testing.T) {
	sch := batchTestSchema()
	blk := fillBatchBlock(sch, 257, 1)
	var sparse []int32
	for i := 0; i < blk.NumTuples(); i += 3 {
		sparse = append(sparse, int32(i))
	}
	for ci, e := range batchExprCases(sch) {
		k := CompileBatch(e, sch)
		for _, tc := range []struct {
			name string
			sel  []int32
		}{{"all", nil}, {"sparse", sparse}} {
			var out Vec
			k.EvalVec(blk, tc.sel, &out)
			n := blk.NumTuples()
			if tc.sel != nil {
				n = len(tc.sel)
			}
			if out.Len() != n {
				t.Fatalf("case %d (%s) %s: vec len %d, want %d", ci, e, tc.name, out.Len(), n)
			}
			for j := 0; j < n; j++ {
				row := j
				if tc.sel != nil {
					row = int(tc.sel[j])
				}
				want := e.Eval(blk.ReadRow(row, nil), sch)
				got := out.Value(j)
				if want.Null != got.Null {
					t.Fatalf("case %d (%s) %s row %d: null %v, want %v", ci, e, tc.name, row, got.Null, want.Null)
				}
				if !want.Null && want.Compare(got) != 0 {
					t.Fatalf("case %d (%s) %s row %d: got %s, want %s", ci, e, tc.name, row, got, want)
				}
			}
		}
	}
}

// TestArithKernelsMatchEval holds float arithmetic to Eval bit for bit
// over the values where float arithmetic is delicate (−0, ±Inf, NaN,
// overflow), on every row and under a selection. typed says which
// shapes must run the typed loop — a float vector or a non-NULL literal
// on each side — so the comparison cannot pass on the other loop alone.
func TestArithKernelsMatchEval(t *testing.T) {
	sch := types.NewSchema(types.Col("f", types.Float64), types.Col("g", types.Float64),
		types.Col("h", types.Float64), types.Col("a", types.Int64))
	vals := []float64{math.Copysign(0, -1), 0, 1.5, -2.25, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, 3}
	blk := block.New(sch, len(vals)*len(vals)*sch.Stride(), nil)
	for i, f := range vals {
		for j, g := range vals {
			r := make([]byte, blk.Schema().Stride())
			types.PutFloat(r, sch.Offset(0), f)
			types.PutFloat(r, sch.Offset(1), g)
			types.PutFloat(r, sch.Offset(2), vals[(i+j)%len(vals)])
			types.PutInt(r, sch.Offset(3), int64(i-j))
			blk.AppendRows(r)
		}
	}
	f, g, h, a := col(sch, "f"), col(sch, "g"), col(sch, "h"), col(sch, "a")
	fl := func(x float64) Expr { return NewConst(types.FloatVal(x)) }
	in := func(x int64) Expr { return NewConst(types.IntVal(x)) }
	null := NewConst(types.NullVal(types.Float64))
	cases := []struct {
		e     Expr
		typed bool
	}{
		{NewArith(Add, f, g), true},
		{NewArith(Sub, f, g), true},
		{NewArith(Mul, f, g), true},
		{NewArith(Add, f, fl(1.5)), true},
		{NewArith(Sub, fl(1.5), f), true},
		{NewArith(Mul, f, fl(math.Copysign(0, -1))), true},
		{NewArith(Sub, f, fl(math.Inf(1))), true},
		{NewArith(Mul, fl(math.NaN()), g), true},
		{NewArith(Sub, in(1), g), true}, // int literal against a float column
		{NewArith(Add, f, in(-3)), true},
		{NewArith(Mul, f, NewArith(Sub, in(1), g)), true},
		{NewArith(Mul, NewArith(Mul, f, NewArith(Sub, in(1), g)), NewArith(Add, in(1), h)), true},
		{NewArith(Add, NewArith(Div, f, g), in(1)), true}, // NULL where g is ±0
		{NewArith(Sub, h, NewArith(Div, f, g)), true},
		{NewArith(Add, f, null), false}, // NULL literal: every row NULL
		{NewArith(Mul, null, g), false},
		{NewArith(Mul, a, f), false}, // an Int64 vector is coerced row by row
		{NewArith(Sub, f, a), false},
		{NewArith(Div, f, g), false}, // x/0 → NULL keeps its own loop
	}
	var odd []int32
	for i := 1; i < blk.NumTuples(); i += 2 {
		odd = append(odd, int32(i))
	}
	for _, c := range cases {
		k := CompileBatch(c.e, sch)
		if ak, ok := k.(*arithKernel); !ok || ak.typed != c.typed {
			t.Fatalf("%s: compiled to %T (typed %v), want the typed loop %v", c.e, k, ok && ak.typed, c.typed)
		}
		for _, sel := range [][]int32{nil, odd} {
			var out Vec
			k.EvalVec(blk, sel, &out)
			for j := 0; j < out.Len(); j++ {
				row := j
				if sel != nil {
					row = int(sel[j])
				}
				want, got := c.e.Eval(blk.ReadRow(row, nil), sch), out.Value(j)
				if want.Null != got.Null || got.Kind != types.Float64 ||
					!want.Null && math.Float64bits(want.F) != math.Float64bits(got.F) {
					t.Fatalf("%s row %d (sel %v): got %v (%x), want %v (%x)", c.e, row, sel != nil,
						got, math.Float64bits(got.F), want, math.Float64bits(want.F))
				}
			}
		}
	}
}

// batchPredCases returns predicates spanning the fused filter shapes and
// the row fallback.
func batchPredCases(sch *types.Schema) []Expr {
	a, b, f, d, s := col(sch, "a"), col(sch, "b"), col(sch, "f"), col(sch, "d"), col(sch, "s")
	var preds []Expr
	for _, op := range []CmpOp{EQ, NE, LT, LE, GT, GE} {
		preds = append(preds,
			NewCmp(op, a, NewConst(types.IntVal(5))),
			NewCmp(op, NewConst(types.IntVal(5)), a), // const-op-col flips
			NewCmp(op, f, NewConst(types.FloatVal(-1.25))),
			NewCmp(op, a, NewConst(types.FloatVal(2.5))), // int col, float const
			NewCmp(op, d, NewConst(types.DateVal(14400))),
			NewCmp(op, s, NewConst(types.StrVal("beta"))),
			NewCmp(op, a, b), // col-op-col
			NewCmp(op, a, f), // mixed col-op-col
		)
	}
	preds = append(preds,
		NewBetween(a, NewConst(types.IntVal(-10)), NewConst(types.IntVal(10))),
		NewBetween(f, NewConst(types.IntVal(-5)), NewConst(types.FloatVal(12.5))),
		NewBetween(d, NewConst(types.DateVal(14100)), NewConst(types.DateVal(14500))),
		NewIn(a, []types.Value{types.IntVal(1), types.IntVal(4), types.IntVal(-9)}),
		NewLike(s, "alpha%", false),
		NewLike(s, "%a_b%", true),
		NewLike(s, "a%b", false),
		NewAnd(NewCmp(GT, a, NewConst(types.IntVal(-20))),
			NewCmp(LT, f, NewConst(types.FloatVal(20))),
			NewCmp(NE, b, NewConst(types.IntVal(3)))),
		// Fallbacks inside and around conjunctions.
		NewOr(NewCmp(LT, a, NewConst(types.IntVal(0))), NewLike(s, "be%", false)),
		NewAnd(NewCmp(GT, a, NewConst(types.IntVal(-40))),
			NewOr(NewCmp(LT, b, NewConst(types.IntVal(2))), NewCmp(GT, f, NewConst(types.FloatVal(0))))),
		NewNot(NewBetween(a, NewConst(types.IntVal(0)), NewConst(types.IntVal(25)))),
		NewCase([]When{{Cond: NewCmp(GT, a, b), Then: NewConst(types.IntVal(1))}}, nil),
	)
	return append(preds, foldedPredCases(sch)...)
}

// foldedPredCases compare a column with a tree over literals: the date
// bounds of TPC-H Q1 (date - interval day) and of Q3/Q4/Q5/Q10/Q12/Q14
// (date ± interval month|year), the same with the literal bound to a
// parameter first, a folded BETWEEN bound, and arithmetic over numbers.
// All of them must compile to the fused column-op-constant kernels.
func foldedPredCases(sch *types.Schema) []Expr {
	a, f, d := col(sch, "a"), col(sch, "f"), col(sch, "d")
	day := NewConst(types.DateVal(14400))
	bound, err := SubstParams(NewAddMonths(NewParam(1), 3), []types.Value{types.DateVal(14400)})
	if err != nil {
		panic(err)
	}
	return []Expr{
		NewCmp(LE, d, NewArith(Sub, day, NewConst(types.IntVal(90)))),
		NewCmp(GE, d, NewAddMonths(day, -3)),
		NewCmp(LT, NewAddMonths(day, 12), d),
		NewCmp(LT, d, bound),
		NewBetween(d, day, NewAddMonths(day, 12)),
		NewCmp(GT, a, NewArith(Mul, NewConst(types.IntVal(3)), NewConst(types.IntVal(-2)))),
		NewCmp(LT, f, NewArith(Div, NewConst(types.IntVal(7)), NewConst(types.IntVal(2)))),
	}
}

// TestCompilePredicateMatchesEval verifies batch selection vectors
// against Truthy(Eval) row by row, in both append (sel == nil) and
// in-place narrowing modes.
func TestCompilePredicateMatchesEval(t *testing.T) {
	sch := batchTestSchema()
	blk := fillBatchBlock(sch, 311, 2)
	n := blk.NumTuples()
	for ci, e := range batchPredCases(sch) {
		p := CompilePredicate(e, sch)
		var want []int32
		for i := 0; i < n; i++ {
			if Truthy(e.Eval(blk.ReadRow(i, nil), sch)) {
				want = append(want, int32(i))
			}
		}
		got := p.Select(blk, nil, nil)
		if !equalSel(got, want) {
			t.Fatalf("case %d (%s): select all = %v, want %v", ci, e, got, want)
		}
		// Narrowing: start from the even rows; survivors must be the even
		// qualifying rows, in order, written into the prefix.
		evens := make([]int32, 0, n/2)
		for i := 0; i < n; i += 2 {
			evens = append(evens, int32(i))
		}
		var wantEven []int32
		for _, i := range evens {
			if Truthy(e.Eval(blk.ReadRow(int(i), nil), sch)) {
				wantEven = append(wantEven, i)
			}
		}
		narrowed := p.Select(blk, evens, nil)
		if !equalSel(narrowed, wantEven) {
			t.Fatalf("case %d (%s): narrowed = %v, want %v", ci, e, narrowed, wantEven)
		}
	}
}

// TestRangeKernelsAtTheEdges: the numeric column-against-constant
// kernels restate every operator as a closed range, which is where the
// ends of the domain can go wrong: c-1 below the least integer, the
// float just below -Inf, a strict bound at ±0, an empty BETWEEN. Every
// operator against every pairing of the values below must select what
// Eval selects. (NaN is left out: Value.Compare orders it equal to
// everything, the kernels, like the operators, equal to nothing, and no
// column holds one — x/0 is NULL.)
func TestRangeKernelsAtTheEdges(t *testing.T) {
	ints := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, 1 << 53, 1<<53 + 1, math.MaxInt64 - 1, math.MaxInt64}
	floats := []float64{math.Inf(-1), -math.MaxFloat64, -2.5, -math.SmallestNonzeroFloat64, math.Copysign(0, -1),
		0, math.SmallestNonzeroFloat64, 2.5, 1 << 53, math.MaxFloat64, math.Inf(1)}
	sch := batchTestSchema()
	n := len(ints) * len(floats)
	blk := block.New(sch, n*sch.Stride(), nil)
	for _, i := range ints {
		for _, f := range floats {
			r := make([]byte, blk.Schema().Stride())
			types.PutValue(r, sch, 0, types.IntVal(i))
			types.PutValue(r, sch, 2, types.FloatVal(f))
			blk.AppendRows(r)
		}
	}
	a, f := col(sch, "a"), col(sch, "f")
	var preds []Expr
	for _, op := range []CmpOp{EQ, NE, LT, LE, GT, GE} {
		for _, c := range ints {
			preds = append(preds, NewCmp(op, a, NewConst(types.IntVal(c))), NewCmp(op, f, NewConst(types.IntVal(c))))
		}
		for _, c := range floats {
			preds = append(preds, NewCmp(op, f, NewConst(types.FloatVal(c))), NewCmp(op, a, NewConst(types.FloatVal(c))))
		}
	}
	for _, lo := range ints {
		for _, hi := range ints {
			preds = append(preds, NewBetween(a, NewConst(types.IntVal(lo)), NewConst(types.IntVal(hi))))
		}
	}
	for _, lo := range floats {
		for _, hi := range floats {
			preds = append(preds, NewBetween(f, NewConst(types.FloatVal(lo)), NewConst(types.FloatVal(hi))),
				NewBetween(a, NewConst(types.FloatVal(lo)), NewConst(types.FloatVal(hi))))
		}
	}
	odds := make([]int32, 0, n/2)
	for _, e := range preds {
		p := CompilePredicate(e, sch)
		if !p.Fused() {
			t.Fatalf("%s did not fuse", e)
		}
		var want, wantOdd []int32
		odds = odds[:0]
		for i := 0; i < n; i++ {
			keep := Truthy(e.Eval(blk.ReadRow(i, nil), sch))
			if keep {
				want = append(want, int32(i))
			}
			if i%2 == 1 {
				odds = append(odds, int32(i))
				if keep {
					wantOdd = append(wantOdd, int32(i))
				}
			}
		}
		if got := p.Select(blk, nil, nil); !equalSel(got, want) {
			t.Errorf("%s: select all = %v, want %v", e, got, want)
		}
		if got := p.Select(blk, odds, nil); !equalSel(got, wantOdd) {
			t.Errorf("%s: narrowed = %v, want %v", e, got, wantOdd)
		}
	}
}

func equalSel(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBatchKeyEncoderMatchesRowEncoder requires byte-identical keys and
// hashes between EncodeBlock and the row-at-a-time KeyEncoder: the
// invariant that lets batch-built and row-built hash state interoperate.
// The keys come from an encoder that writes them (WithKeys); the hashes
// must agree with and without it.
func TestBatchKeyEncoderMatchesRowEncoder(t *testing.T) {
	sch := batchTestSchema()
	blk := fillBatchBlock(sch, 203, 3)
	a, f, d, s := col(sch, "a"), col(sch, "f"), col(sch, "d"), col(sch, "s")
	keySets := [][]Expr{
		{a},       // single int: the common join key
		{s},       // string key
		{f},       // float key
		{d, a},    // composite
		{a, s, f}, // mixed composite
		{NewArith(Add, a, NewConst(types.IntVal(2)))},                                      // fused kernel key
		{NewCase([]When{{Cond: NewCmp(GT, a, NewConst(types.IntVal(0))), Then: a}}, f), s}, // fallback + direct
		{}, // scalar aggregation: empty key
	}
	var sparse []int32
	for i := 1; i < blk.NumTuples(); i += 7 {
		sparse = append(sparse, int32(i))
	}
	for ki, keys := range keySets {
		row := NewKeyEncoder(keys)
		benc, hashOnly := NewBatchKeyEncoder(keys, sch).WithKeys(), NewBatchKeyEncoder(keys, sch)
		for _, tc := range []struct {
			name string
			sel  []int32
		}{{"all", nil}, {"sparse", sparse}} {
			cnt := benc.EncodeBlock(blk, tc.sel)
			hashOnly.EncodeBlock(blk, tc.sel)
			wantN := blk.NumTuples()
			if tc.sel != nil {
				wantN = len(tc.sel)
			}
			if cnt != wantN {
				t.Fatalf("keys %d %s: EncodeBlock = %d rows, want %d", ki, tc.name, cnt, wantN)
			}
			for j := 0; j < cnt; j++ {
				r := j
				if tc.sel != nil {
					r = int(tc.sel[j])
				}
				want := row.Encode(blk.ReadRow(r, nil), sch)
				if got := benc.Key(j); !bytes.Equal(got, want) {
					t.Fatalf("keys %d %s row %d: key %x, want %x", ki, tc.name, r, got, want)
				}
				wantH := row.Hash(blk.ReadRow(r, nil), sch)
				if got := benc.Hash(j); got != wantH {
					t.Fatalf("keys %d %s row %d: hash %x, want %x", ki, tc.name, r, got, wantH)
				}
				if got := hashOnly.Hash(j); got != wantH {
					t.Fatalf("keys %d %s row %d: hash without key bytes %x, want %x", ki, tc.name, r, got, wantH)
				}
			}
		}
	}
}

// TestBatchKernelsUnderConcurrency runs one shared compiled kernel and
// predicate from many goroutines — the elastic worker-pool usage — under
// the race detector.
func TestBatchKernelsUnderConcurrency(t *testing.T) {
	sch := batchTestSchema()
	blk := fillBatchBlock(sch, 500, 4)
	e := NewArith(Mul, col(sch, "a"), col(sch, "f"))
	k := CompileBatch(e, sch)
	p := CompilePredicate(NewAnd(
		NewCmp(GT, col(sch, "a"), NewConst(types.IntVal(-10))),
		NewCmp(LT, col(sch, "f"), NewConst(types.FloatVal(20)))), sch)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for it := 0; it < 50; it++ {
				v := GetVec()
				k.EvalVec(blk, nil, v)
				if v.Len() != blk.NumTuples() {
					done <- fmt.Errorf("vec len %d", v.Len())
					return
				}
				PutVec(v)
				sel := p.Select(blk, nil, nil)
				for x := 1; x < len(sel); x++ {
					if sel[x] <= sel[x-1] {
						done <- fmt.Errorf("unsorted selection")
						return
					}
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestPredVectorized spot-checks the planner annotation helpers.
func TestPredVectorized(t *testing.T) {
	sch := batchTestSchema()
	a, s := col(sch, "a"), col(sch, "s")
	if !PredVectorized(NewCmp(LT, a, NewConst(types.IntVal(1))), sch) {
		t.Error("col<const should be fused")
	}
	if !PredVectorized(NewLike(s, "a%", false), sch) {
		t.Error("LIKE over CHAR col should be fused")
	}
	if PredVectorized(NewOr(NewCmp(LT, a, NewConst(types.IntVal(1))), NewCmp(GT, a, NewConst(types.IntVal(5)))), sch) {
		t.Error("OR should fall back")
	}
	for _, e := range foldedPredCases(sch) {
		if !PredVectorized(e, sch) {
			t.Errorf("%s: a bound that folds to a literal should be fused", e)
		}
	}
	// x/0 folds to NULL, which no fused comparison represents: the row
	// fallback keeps NULL's semantics (no row qualifies).
	divZero := NewCmp(LT, col(sch, "f"), NewArith(Div, NewConst(types.IntVal(1)), NewConst(types.IntVal(0))))
	if PredVectorized(divZero, sch) {
		t.Error("a comparison with a NULL fold should fall back")
	}
	if sel := CompilePredicate(divZero, sch).Select(fillBatchBlock(sch, 50, 9), nil, nil); len(sel) != 0 {
		t.Errorf("f < 1/0 selected %d rows", len(sel))
	}
	if !ProjVectorized([]Expr{NewAddMonths(NewConst(types.DateVal(14400)), 1), NewArith(Add, a, NewAddMonths(NewConst(types.DateVal(14400)), 1))}, sch) {
		t.Error("a literal tree in a projection should fold to a broadcast")
	}
	// A CASE over literals whose taken arm is not of the static kind
	// must not fold: a fused kernel's vector is of the kind Kind() says.
	mixed := NewCase([]When{{Cond: NewConst(types.IntVal(0)), Then: NewConst(types.IntVal(1))}}, NewConst(types.FloatVal(2.5)))
	if ProjVectorized([]Expr{mixed}, sch) {
		t.Error("a literal CASE that folds to another kind should fall back")
	}
	if !ProjVectorized([]Expr{a, NewArith(Add, a, NewConst(types.IntVal(1)))}, sch) {
		t.Error("col + arith projection should be fused")
	}
	if ProjVectorized([]Expr{NewCase([]When{{Cond: a, Then: a}}, nil)}, sch) {
		t.Error("CASE projection should fall back")
	}
}

// TestProgramMatchesKernels evaluates every fused case through one
// Program, whose steps share what the cases have in common, and holds
// each case's vector to its own kernel's, on every row and under a
// selection. The cases outside the fused shapes are refused.
func TestProgramMatchesKernels(t *testing.T) {
	sch := batchTestSchema()
	blk := fillBatchBlock(sch, 257, 3)
	var sparse []int32
	for i := 0; i < blk.NumTuples(); i += 5 {
		sparse = append(sparse, int32(i))
	}
	p := NewProgram(sch)
	cases := batchExprCases(sch)
	at := make([]int, len(cases))
	for ci, e := range cases {
		k := CompileBatch(e, sch)
		var ok bool
		if at[ci], ok = p.Add(e); ok != k.Fused() {
			t.Fatalf("case %d (%s): Add ok=%v, kernel fused=%v", ci, e, ok, k.Fused())
		}
	}
	for _, sel := range [][]int32{nil, sparse} {
		vecs := p.Vecs()
		p.Run(blk, sel, vecs)
		for ci, e := range cases {
			if at[ci] < 0 {
				continue
			}
			var want Vec
			CompileBatch(e, sch).EvalVec(blk, sel, &want)
			got := vecs[at[ci]]
			if got.Len() != want.Len() || got.Kind != want.Kind {
				t.Fatalf("case %d (%s): %d %v entries, want %d %v", ci, e, got.Len(), got.Kind, want.Len(), want.Kind)
			}
			for j := 0; j < want.Len(); j++ {
				if g, w := got.Value(j), want.Value(j); g.Null != w.Null || (!w.Null && g.Compare(w) != 0) {
					t.Fatalf("case %d (%s) entry %d: got %s, want %s", ci, e, j, g, w)
				}
			}
		}
	}
}

// TestProgramSharesSubexpressions compiles Q1's two computed arguments,
// each written out as its own tree: the columns, 1-d and p*(1-d) are
// one step each, so the program makes seven vectors where two kernels
// made ten, and adding an equal tree again adds nothing.
func TestProgramSharesSubexpressions(t *testing.T) {
	sch := types.NewSchema(types.Col("p", types.Float64), types.Col("d", types.Float64), types.Col("t", types.Float64))
	p, d, tax := NewCol(0, "p"), NewCol(1, "d"), NewCol(2, "t")
	one := func() Expr { return NewConst(types.FloatVal(1)) }
	discPrice := func() Expr { return NewArith(Mul, p, NewArith(Sub, one(), d)) }
	charge := NewArith(Mul, discPrice(), NewArith(Add, one(), tax))
	prog := NewProgram(sch)
	a, _ := prog.Add(discPrice())
	b, _ := prog.Add(charge)
	// p, d, 1-d, p*(1-d), t, 1+t, the product: the literals are the
	// typed loops' scalars, no vector of their own.
	if n := len(prog.Vecs()); n != 7 {
		t.Errorf("program has %d steps, want 7", n)
	}
	if again, _ := prog.Add(discPrice()); again != a || len(prog.Vecs()) != 7 {
		t.Errorf("an equal tree got step %d of %d, want step %d of 7", again, len(prog.Vecs()), a)
	}
	if a == b {
		t.Error("two different arguments share a step")
	}
}

// TestNeverNullVectorsShareOneMask: a kernel whose expression NotNull
// says cannot be NULL points its vector at the shared all-false mask,
// one that can gets a mask of its own, and reusing one vector for both
// kinds in turn never writes the shared mask. NotNull must also be true
// to Eval: no row of a NotNull expression evaluates to NULL.
func TestNeverNullVectorsShareOneMask(t *testing.T) {
	sch := batchTestSchema()
	blk := fillBatchBlock(sch, 300, 4)
	var v Vec
	for round := 0; round < 2; round++ {
		for ci, e := range batchExprCases(sch) {
			CompileBatch(e, sch).EvalVec(blk, nil, &v)
			shared := &v.Null[0] == &falses[0]
			if NotNull(e) {
				if !shared {
					t.Errorf("case %d (%s): never NULL, but the vector has a mask of its own", ci, e)
				}
				for i := 0; i < blk.NumTuples(); i++ {
					if e.Eval(blk.ReadRow(i, nil), sch).Null {
						t.Fatalf("case %d (%s): NotNull, but row %d is NULL", ci, e, i)
					}
				}
			} else if shared {
				t.Errorf("case %d (%s): may be NULL, but the vector has the shared mask", ci, e)
			}
			for i, x := range falses {
				if x {
					t.Fatalf("case %d (%s) wrote the shared mask at %d", ci, e, i)
				}
			}
		}
	}
}
