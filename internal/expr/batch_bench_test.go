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
			var rec []byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kept = 0
				for r := 0; r < blk.NumTuples(); r++ {
					rec = blk.ReadRow(r, rec)
					if Truthy(pred.Eval(rec, sch)) {
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
			blk.SetLen(benchRows)
			for i := 0; i < benchRows; i++ {
				blk.Set(i, 0, types.IntVal(int64(rng.Intn(k))))
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
			var rec []byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := 0; r < blk.NumTuples(); r++ {
					rec = blk.ReadRow(r, rec)
					key := enc.Encode(rec, sch)
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
		r := make([]byte, blk.Schema().Stride())
		types.PutFloat(r, sch.Offset(0), 900+float64(i%100000))
		types.PutFloat(r, sch.Offset(1), float64(i%11)/100)
		types.PutFloat(r, sch.Offset(2), float64(i%9)/100)
		blk.AppendRows(r)
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
	var rec []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < blk.NumTuples(); r++ {
			rec = blk.ReadRow(r, rec)
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

// BenchmarkColumnLoad times the column loads a scan's kernels start
// from, over 300 000 lineitem-shaped rows (the TPC-H schema's fourteen
// columns, 100 bytes a row) in 64 KB blocks — a table well past the
// caches, as a scan reads it: Q1's column passes (the shipdate range
// predicate, the two one-byte group keys packed into a word, and the
// quantity and price loads) over every row and over the predicate's
// selection, and S-Q4's three (the date key's hash and two price
// loads). ns/row is per row of the table.
func BenchmarkColumnLoad(b *testing.B) {
	sch := types.NewSchema(
		types.Col("l_orderkey", types.Int64), types.Col("l_partkey", types.Int64),
		types.Col("l_suppkey", types.Int64), types.Col("l_linenumber", types.Int64),
		types.Col("l_quantity", types.Float64), types.Col("l_extendedprice", types.Float64),
		types.Col("l_discount", types.Float64), types.Col("l_tax", types.Float64),
		types.Char("l_returnflag", 1), types.Char("l_linestatus", 1),
		types.Col("l_shipdate", types.Date), types.Col("l_commitdate", types.Date),
		types.Col("l_receiptdate", types.Date), types.Char("l_shipmode", 10),
	)
	const rows = 300_000
	rng := rand.New(rand.NewSource(5))
	day0 := types.MustParseDate("1992-01-01")
	rec := make([]byte, sch.Stride())
	var blocks []*block.Block
	for r := 0; r < rows; r++ {
		if r == 0 || blocks[len(blocks)-1].Full() {
			blocks = append(blocks, block.New(sch, block.DefaultSize, nil))
		}
		for c, col := range sch.Cols {
			switch col.Kind {
			case types.Int64:
				types.PutValue(rec, sch, c, types.IntVal(rng.Int63n(1<<20)))
			case types.Float64:
				types.PutValue(rec, sch, c, types.FloatVal(float64(rng.Intn(10000))/100))
			case types.Date:
				types.PutValue(rec, sch, c, types.DateVal(day0+int64(rng.Intn(2500))))
			default:
				types.PutValue(rec, sch, c, types.StrVal(string(rune('A'+rng.Intn(3)))))
			}
		}
		blocks[len(blocks)-1].AppendRows(rec)
	}
	q1Pred := CompilePredicate(NewCmp(LE, col(sch, "l_shipdate"),
		NewConst(types.DateVal(day0+2300))), sch)
	q1Keys := NewGroupKeyEncoder([]Expr{col(sch, "l_returnflag"), col(sch, "l_linestatus")}, sch)
	sq4Key := NewGroupKeyEncoder([]Expr{col(sch, "l_commitdate")}, sch)
	qty, price := CompileBatch(col(sch, "l_quantity"), sch), CompileBatch(col(sch, "l_extendedprice"), sch)
	v := GetVec()
	defer PutVec(v)
	sel := make([]int32, 0, blocks[0].Cap())
	for _, tc := range []struct {
		name string
		run  func(blk *block.Block)
	}{
		{"q1", func(blk *block.Block) {
			sel = q1Pred.Select(blk, nil, sel[:0])
			q1Keys.EncodeBlock(blk, nil)
			qty.EvalVec(blk, nil, v)
			price.EvalVec(blk, nil, v)
		}},
		{"q1-selected", func(blk *block.Block) {
			sel = q1Pred.Select(blk, nil, sel[:0])
			q1Keys.EncodeBlock(blk, sel)
			qty.EvalVec(blk, sel, v)
			price.EvalVec(blk, sel, v)
		}},
		{"sq4", func(blk *block.Block) {
			sq4Key.EncodeBlock(blk, nil)
			qty.EvalVec(blk, nil, v)
			price.EvalVec(blk, nil, v)
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, blk := range blocks {
					tc.run(blk)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
	}
}
