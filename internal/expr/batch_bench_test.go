package expr

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/block"
	"repro/internal/types"
)

// Kernel micro-benchmarks: row-at-a-time Eval vs the compiled batch
// kernels over one 4096-row block, the comparison behind the issue's
// >=2x acceptance bars. EXPERIMENTS.md records representative numbers.

const benchRows = 4096

// benchSelExprs maps a target selectivity to a fused col<const
// predicate over column a, which is uniform on [-50, 50).
func benchSelExprs(sch *types.Schema) map[string]Expr {
	a := col(sch, "a")
	return map[string]Expr{
		"1pct":  NewCmp(LT, a, NewConst(types.IntVal(-49))),
		"50pct": NewCmp(LT, a, NewConst(types.IntVal(0))),
		"99pct": NewCmp(LT, a, NewConst(types.IntVal(49))),
	}
}

func BenchmarkFilterRow(b *testing.B) {
	sch := batchTestSchema()
	blk := fillBatchBlock(sch, benchRows, 99)
	for name, pred := range benchSelExprs(sch) {
		b.Run(name, func(b *testing.B) {
			kept := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kept = 0
				for r := 0; r < blk.NumTuples(); r++ {
					if Truthy(pred.Eval(blk.Row(r), sch)) {
						kept++
					}
				}
			}
			b.ReportMetric(float64(b.N)*benchRows/b.Elapsed().Seconds(), "tuples/s")
			_ = kept
		})
	}
}

func BenchmarkFilterBatch(b *testing.B) {
	sch := batchTestSchema()
	blk := fillBatchBlock(sch, benchRows, 99)
	for name, pred := range benchSelExprs(sch) {
		b.Run(name, func(b *testing.B) {
			bp := CompilePredicate(pred, sch)
			if !bp.Fused() {
				b.Fatal("predicate did not fuse")
			}
			sel := make([]int32, 0, benchRows)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sel = bp.Select(blk, nil, sel[:0])
			}
			b.ReportMetric(float64(b.N)*benchRows/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}

// BenchmarkFilterConjunctionBatch measures selection-vector narrowing
// across a three-term AND, the copy-free in-place chain.
func BenchmarkFilterConjunctionBatch(b *testing.B) {
	sch := batchTestSchema()
	blk := fillBatchBlock(sch, benchRows, 99)
	pred := NewAnd(
		NewCmp(LT, col(sch, "a"), NewConst(types.IntVal(25))),
		NewCmp(GE, col(sch, "b"), NewConst(types.IntVal(2))),
		NewCmp(NE, col(sch, "f"), NewConst(types.FloatVal(0))),
	)
	bp := CompilePredicate(pred, sch)
	sel := make([]int32, 0, benchRows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel = bp.Select(blk, nil, sel[:0])
	}
	b.ReportMetric(float64(b.N)*benchRows/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkFilterEqualBatch measures the equality kernel on an integer
// column holding k values in random order, so a = 0 keeps one row in k:
// from every row (k = 1) and every other row (k = 2), where a branch on
// the match is mispredicted most, down to a point lookup's one in 1000.
func BenchmarkFilterEqualBatch(b *testing.B) {
	sch := types.NewSchema(types.Col("a", types.Int64), types.Col("b", types.Int64))
	bp := CompilePredicate(NewCmp(EQ, col(sch, "a"), NewConst(types.IntVal(0))), sch)
	for _, k := range []int{1, 2, 10, 1000} {
		b.Run(fmt.Sprintf("keep1of%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(k)))
			blk := block.New(sch, benchRows*sch.Stride(), nil)
			for i := 0; i < benchRows; i++ {
				types.PutValue(blk.AppendRowTo(), sch, 0, types.IntVal(int64(rng.Intn(k))))
			}
			sel := make([]int32, 0, benchRows)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sel = bp.Select(blk, nil, sel[:0])
			}
			b.ReportMetric(float64(b.N)*benchRows/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}

func benchKeyExprs(sch *types.Schema) map[string][]Expr {
	return map[string][]Expr{
		"int":        {col(sch, "a")},
		"int_int":    {col(sch, "a"), col(sch, "b")},
		"str":        {col(sch, "s")},
		"int_f_str":  {col(sch, "a"), col(sch, "f"), col(sch, "s")},
		"arith_expr": {NewArith(Add, col(sch, "a"), col(sch, "b"))},
	}
}

func BenchmarkKeyHashRow(b *testing.B) {
	sch := batchTestSchema()
	blk := fillBatchBlock(sch, benchRows, 7)
	for name, keys := range benchKeyExprs(sch) {
		b.Run(name, func(b *testing.B) {
			enc := NewKeyEncoder(keys)
			var h uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := 0; r < blk.NumTuples(); r++ {
					key := enc.Encode(blk.Row(r), sch)
					h ^= Hash64(key)
				}
			}
			b.ReportMetric(float64(b.N)*benchRows/b.Elapsed().Seconds(), "keys/s")
			_ = h
		})
	}
}

func BenchmarkKeyHashBatch(b *testing.B) {
	sch := batchTestSchema()
	blk := fillBatchBlock(sch, benchRows, 7)
	for name, keys := range benchKeyExprs(sch) {
		b.Run(name, func(b *testing.B) {
			enc := NewBatchKeyEncoder(keys, sch)
			if !enc.Vectorized() {
				b.Fatal("key encoder did not vectorize")
			}
			var h uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := enc.EncodeBlock(blk, nil)
				for j := 0; j < n; j++ {
					h ^= enc.Hash(j)
				}
			}
			b.ReportMetric(float64(b.N)*benchRows/b.Elapsed().Seconds(), "keys/s")
			_ = h
		})
	}
}

func benchProjExprs(sch *types.Schema) []Expr {
	return []Expr{
		NewArith(Mul, col(sch, "f"), NewConst(types.FloatVal(0.07))),
		NewArith(Sub, col(sch, "a"), col(sch, "b")),
		NewExtract(Year, col(sch, "d")),
	}
}

// BenchmarkArithFloatBatch evaluates TPC-H Q1's two arithmetic
// aggregate arguments, l_extendedprice*(1-l_discount) and
// l_extendedprice*(1-l_discount)*(1+l_tax), over one 4096-row block.
func BenchmarkArithFloatBatch(b *testing.B) {
	sch := types.NewSchema(types.Col("price", types.Float64),
		types.Col("disc", types.Float64), types.Col("tax", types.Float64))
	blk := block.New(sch, benchRows*sch.Stride(), nil)
	for i := 0; i < benchRows; i++ {
		r := blk.AppendRowTo()
		types.PutFloat(r, sch.Offset(0), 900+float64(i%100000))
		types.PutFloat(r, sch.Offset(1), float64(i%11)/100)
		types.PutFloat(r, sch.Offset(2), float64(i%9)/100)
	}
	one := NewConst(types.IntVal(1))
	price, disc, tax := col(sch, "price"), col(sch, "disc"), col(sch, "tax")
	discPrice := NewArith(Mul, price, NewArith(Sub, one, disc))
	charge := NewArith(Mul, discPrice, NewArith(Add, one, tax))
	kerns := []BatchExpr{CompileBatch(discPrice, sch), CompileBatch(charge, sch)}
	v := GetVec()
	defer PutVec(v)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range kerns {
			k.EvalVec(blk, nil, v)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchRows, "ns/row")
}

func BenchmarkProjectionRow(b *testing.B) {
	sch := batchTestSchema()
	blk := fillBatchBlock(sch, benchRows, 3)
	exprs := benchProjExprs(sch)
	var sink types.Value
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < blk.NumTuples(); r++ {
			rec := blk.Row(r)
			for _, e := range exprs {
				sink = e.Eval(rec, sch)
			}
		}
	}
	b.ReportMetric(float64(b.N)*benchRows/b.Elapsed().Seconds(), "tuples/s")
	_ = sink
}

func BenchmarkProjectionBatch(b *testing.B) {
	sch := batchTestSchema()
	blk := fillBatchBlock(sch, benchRows, 3)
	var kerns []BatchExpr
	for i, e := range benchProjExprs(sch) {
		k := CompileBatch(e, sch)
		if !k.Fused() {
			b.Fatal(fmt.Sprintf("projection expr %d did not fuse", i))
		}
		kerns = append(kerns, k)
	}
	v := GetVec()
	defer PutVec(v)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range kerns {
			k.EvalVec(blk, nil, v)
		}
	}
	b.ReportMetric(float64(b.N)*benchRows/b.Elapsed().Seconds(), "tuples/s")
}
