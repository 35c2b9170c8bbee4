package iterator

import (
	"fmt"
	"testing"

	"repro/internal/block"
	"repro/internal/expr"
	"repro/internal/types"
)

// Operator micro-benchmarks: per-tuple throughput of the hot paths,
// visible in `go test -bench`. They measure this engine's operators;
// the simulator's cost constants (internal/sim) model the paper's.

func benchPartition(b *testing.B, rows int) (sch *types.Schema, mk func() Iterator) {
	sch = types.NewSchema(
		types.Col("k", types.Int64),
		types.Col("v", types.Float64),
		types.Char("s", 24),
	)
	p := buildPartition(sch, rows, 64*1024, func(i int, rec []byte) {
		types.PutValue(rec, sch, 0, types.IntVal(int64(i%10000)))
		types.PutValue(rec, sch, 1, types.FloatVal(float64(i)))
		types.PutValue(rec, sch, 2, types.StrVal("carefully final deposits"))
	})
	return sch, func() Iterator { return NewScan(p) }
}

func drainAll(b *testing.B, it Iterator) {
	ctx := &Ctx{Term: &TermFlag{}}
	if st := it.Open(ctx); st != OK {
		b.Fatal(st)
	}
	for {
		if _, st := it.Next(ctx); st != OK {
			return
		}
	}
}

func BenchmarkFilterDatePredicate(b *testing.B) {
	const rows = 200_000
	sch, mk := benchPartition(b, rows)
	pred := expr.NewCmp(expr.LT, expr.NewCol(0, "k"), expr.NewConst(types.IntVal(5000)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainAll(b, NewFilter(mk(), sch, pred))
	}
	b.ReportMetric(float64(b.N)*rows/b.Elapsed().Seconds(), "tuples/s")
}

func BenchmarkFilterNotLike(b *testing.B) {
	const rows = 200_000
	sch, mk := benchPartition(b, rows)
	pred := expr.NewLike(expr.NewCol(2, "s"), "%special%requests%", true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainAll(b, NewFilter(mk(), sch, pred))
	}
	b.ReportMetric(float64(b.N)*rows/b.Elapsed().Seconds(), "tuples/s")
}

func BenchmarkHashAggShared(b *testing.B) {
	const rows = 200_000
	sch, mk := benchPartition(b, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainAll(b, NewHashAgg(mk(), sch,
			[]expr.Expr{expr.NewCol(0, "k")}, []string{"k"},
			[]AggSpec{{Func: Sum, Arg: expr.NewCol(1, "v"), Name: "s"}},
			SharedAgg))
	}
	b.ReportMetric(float64(b.N)*rows/b.Elapsed().Seconds(), "tuples/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
}

// benchHashJoin times the chosen phases of a 20k-row build probed by
// 200k rows, half of which match: the build (Open), the probe (the Next
// loop), or both.
func benchHashJoin(b *testing.B, timeBuild, timeProbe bool) {
	const buildRows, probeRows = 20_000, 200_000
	sch, _ := benchPartition(b, 1)
	bp := buildPartition(sch, buildRows, 64*1024, func(i int, rec []byte) {
		types.PutValue(rec, sch, 0, types.IntVal(int64(i)))
	})
	pp := buildPartition(sch, probeRows, 64*1024, func(i int, rec []byte) {
		types.PutValue(rec, sch, 0, types.IntVal(int64(i%(buildRows*2))))
	})
	ctx := &Ctx{Term: &TermFlag{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hj := NewHashJoin(NewScan(bp), NewScan(pp), sch, sch,
			[]expr.Expr{expr.NewCol(0, "k")}, []expr.Expr{expr.NewCol(0, "k")})
		if !timeBuild {
			b.StopTimer()
		}
		if st := hj.Open(ctx); st != OK {
			b.Fatal(st)
		}
		if timeProbe {
			b.StartTimer()
		} else {
			b.StopTimer()
		}
		for {
			if _, st := hj.Next(ctx); st != OK {
				break
			}
		}
		b.StopTimer()
		hj.Close()
		b.StartTimer()
	}
	if timeBuild {
		b.ReportMetric(float64(b.N)*buildRows/b.Elapsed().Seconds(), "build-tuples/s")
	}
	if timeProbe {
		b.ReportMetric(float64(b.N)*probeRows/b.Elapsed().Seconds(), "probe-tuples/s")
	}
}

func BenchmarkHashJoinBuild(b *testing.B) { benchHashJoin(b, true, false) }
func BenchmarkHashJoinProbe(b *testing.B) { benchHashJoin(b, false, true) }

// BenchmarkSenderRepartition routes lineitem-shaped 64 KB blocks by
// l_partkey to three destinations, into an outbox that (like a socket
// transport) has copied each block when Send returns.
func BenchmarkSenderRepartition(b *testing.B) {
	sch, blocks := lineitemBlocks(16)
	s := NewSender(nil, sch, discardOutbox{3}, []expr.Expr{expr.NewCol(1, "l_partkey")})
	s.SendCopies = true
	s.pending = make([]*block.Block, 3)
	s.sent = make([]int64, 3)
	var bytes int64
	for _, blk := range blocks {
		bytes += int64(len(blk.Bytes()))
	}
	b.SetBytes(bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, blk := range blocks {
			if err := s.route(blk); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(s.total)/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkProjectFilterChain runs the shape of a repartitioning scan
// segment — scan → filter → project → sender, three destinations, a
// transport that copies — over 64 storage blocks. Every operator above
// the scan draws its output block from the arena and hands its input
// back, so B/op is what the chain still takes from the allocator: the
// number that jumps if a consumer stops recycling.
func BenchmarkProjectFilterChain(b *testing.B) {
	const rows = 64 * (block.DefaultSize / 40) // benchPartition's rows are 40 bytes
	sch, mk := benchPartition(b, rows)
	pred := expr.NewCmp(expr.LT, expr.NewCol(0, "k"), expr.NewConst(types.IntVal(7500)))
	// Numeric columns only: a projected string column costs one Go string
	// per row, which would drown the blocks in B/op.
	outSch := types.NewSchema(types.Col("k", types.Int64), types.Col("e", types.Float64))
	exprs := []expr.Expr{
		expr.NewCol(0, "k"),
		expr.NewArith(expr.Mul, expr.NewCol(1, "v"), expr.NewConst(types.FloatVal(0.07))),
	}
	keys := []expr.Expr{expr.NewCol(0, "k")}
	ctx := &Ctx{Term: &TermFlag{}}
	b.SetBytes(int64(rows * sch.Stride()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chain := NewProject(NewFilter(mk(), sch, pred), sch, outSch, exprs)
		s := NewSender(chain, outSch, discardOutbox{3}, keys)
		s.SendCopies = true
		if err := s.Run(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*rows/b.Elapsed().Seconds(), "tuples/s")
}

func BenchmarkSort(b *testing.B) {
	const rows = 100_000
	sch, mk := benchPartition(b, rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainAll(b, NewSort(mk(), sch, []SortKey{{E: expr.NewCol(0, "k")}}))
	}
	b.ReportMetric(float64(b.N)*rows/b.Elapsed().Seconds(), "tuples/s")
}

func BenchmarkProjection(b *testing.B) {
	const rows = 200_000
	sch, mk := benchPartition(b, rows)
	outSch := types.NewSchema(types.Col("e0", types.Float64), types.Col("e1", types.Int64))
	exprs := []expr.Expr{
		expr.NewArith(expr.Mul, expr.NewCol(1, "v"), expr.NewConst(types.FloatVal(0.07))),
		expr.NewArith(expr.Add, expr.NewCol(0, "k"), expr.NewConst(types.IntVal(7))),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainAll(b, NewProject(mk(), sch, outSch, exprs))
	}
	b.ReportMetric(float64(b.N)*rows/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkProjectColumns projects plain columns of lineitem-shaped
// rows, the shape the planner puts above every scan: a CHAR(1) flag, a
// run of five adjacent numeric columns and a CHAR(10), out of 64 blocks.
// The outputs are recycled, as a consumer would, so B/op is what the
// projection itself takes from the allocator.
func BenchmarkProjectColumns(b *testing.B) {
	sch, blocks := lineitemBlocks(64)
	idx := []int{7, 1, 2, 3, 4, 5, 8}
	exprs := make([]expr.Expr, len(idx))
	cols := make([]types.Column, len(idx))
	for i, c := range idx {
		exprs[i] = expr.NewCol(c, sch.Cols[c].Name)
		cols[i] = sch.Cols[c]
	}
	outSch := types.NewSchema(cols...)
	rows := 0
	for _, blk := range blocks {
		rows += blk.NumTuples()
	}
	ctx := &Ctx{Term: &TermFlag{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := NewProject(&blockSource{blocks: blocks}, sch, outSch, exprs)
		if st := p.Open(ctx); st != OK {
			b.Fatal(st)
		}
		for {
			out, st := p.Next(ctx)
			if st != OK {
				break
			}
			out.Recycle()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
}

// BenchmarkHashAggQ1Shape aggregates the way TPC-H Q1's partial
// aggregation does: two CHAR(1) keys making four groups, eleven
// sum/count aggregates (avg arrives split into sum and count), two of
// them over arithmetic, hybrid algorithm.
func BenchmarkHashAggQ1Shape(b *testing.B) {
	const rows = 200_000
	sch := types.NewSchema(types.Char("flag", 1), types.Char("status", 1),
		types.Col("qty", types.Float64), types.Col("price", types.Float64),
		types.Col("disc", types.Float64), types.Col("tax", types.Float64))
	p := buildPartition(sch, rows, 64*1024, func(i int, rec []byte) {
		types.PutValue(rec, sch, 0, types.StrVal("ANR"[i%3:i%3+1]))
		types.PutValue(rec, sch, 1, types.StrVal("FO"[i%4/2:i%4/2+1]))
		types.PutValue(rec, sch, 2, types.FloatVal(float64(1+i%50)))
		types.PutValue(rec, sch, 3, types.FloatVal(900+float64(i%100000)))
		types.PutValue(rec, sch, 4, types.FloatVal(float64(i%11)/100))
		types.PutValue(rec, sch, 5, types.FloatVal(float64(i%9)/100))
	})
	qty, price := expr.NewCol(2, "qty"), expr.NewCol(3, "price")
	disc, tax := expr.NewCol(4, "disc"), expr.NewCol(5, "tax")
	one := expr.NewConst(types.FloatVal(1))
	discPrice := expr.NewArith(expr.Mul, price, expr.NewArith(expr.Sub, one, disc))
	charge := expr.NewArith(expr.Mul, discPrice, expr.NewArith(expr.Add, one, tax))
	specs := []AggSpec{
		{Func: Sum, Arg: qty, Name: "sum_qty"},
		{Func: Sum, Arg: price, Name: "sum_base_price"},
		{Func: Sum, Arg: discPrice, Name: "sum_disc_price"},
		{Func: Sum, Arg: charge, Name: "sum_charge"},
		{Func: Sum, Arg: qty, Name: "avg_qty_s"},
		{Func: Count, Arg: qty, Name: "avg_qty_c"},
		{Func: Sum, Arg: price, Name: "avg_price_s"},
		{Func: Count, Arg: price, Name: "avg_price_c"},
		{Func: Sum, Arg: disc, Name: "avg_disc_s"},
		{Func: Count, Arg: disc, Name: "avg_disc_c"},
		{Func: Count, Name: "count_order"},
	}
	keys := []expr.Expr{expr.NewCol(0, "flag"), expr.NewCol(1, "status")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ha := NewHashAgg(NewScan(p), sch, keys, []string{"flag", "status"}, specs, HybridAgg)
		drainAll(b, ha)
		ha.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
}

// BenchmarkHashAggDateKey aggregates the way S-Q4's partial aggregation
// does: one DATE key with about 2 500 groups, SUM and AVG of two float
// columns (the AVG split into SUM and COUNT), under the hybrid
// algorithm the planner now picks for it and the shared one it picked
// before.
func BenchmarkHashAggDateKey(b *testing.B) {
	const rows = 200_000
	sch := types.NewSchema(types.Col("commit", types.Date),
		types.Col("qty", types.Float64), types.Col("disc", types.Float64))
	p := buildPartition(sch, rows, 64*1024, func(i int, rec []byte) {
		types.PutValue(rec, sch, 0, types.DateVal(8000+int64(i*7919%2466)))
		types.PutValue(rec, sch, 1, types.FloatVal(float64(1+i%50)))
		types.PutValue(rec, sch, 2, types.FloatVal(float64(i%11)/100))
	})
	qty, disc := expr.NewCol(1, "qty"), expr.NewCol(2, "disc")
	specs := []AggSpec{
		{Func: Sum, Arg: qty, Name: "sum_qty"},
		{Func: Sum, Arg: disc, Name: "avg_disc_s"},
		{Func: Count, Arg: disc, Name: "avg_disc_c"},
	}
	keys := []expr.Expr{expr.NewCol(0, "commit")}
	for _, algo := range []AggAlgorithm{HybridAgg, SharedAgg} {
		b.Run(algo.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ha := NewHashAgg(NewScan(p), sch, keys, []string{"commit"}, specs, algo)
				drainAll(b, ha)
				ha.Close()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
	}
}

// BenchmarkJoinAggPerBuildRow joins and aggregates the way jpart does:
// 10 000 build rows keyed by an integer and grouped by a CHAR(10) and a
// CHAR(25) column, 300 000 probe rows and three sums of probe columns.
// per-build-row is the join aggregating its matches (NewHashJoinAgg)
// under a HashAgg that merges the partials; matches is the join emitting
// every match into a HashAgg that does all of the aggregation.
func BenchmarkJoinAggPerBuildRow(b *testing.B) {
	const buildRows, probeRows = 10_000, 300_000
	bsch := types.NewSchema(types.Col("p_partkey", types.Int64),
		types.Char("p_brand", 10), types.Char("p_type", 25))
	psch := types.NewSchema(types.Col("l_partkey", types.Int64), types.Col("l_quantity", types.Float64),
		types.Col("l_extendedprice", types.Float64), types.Col("l_discount", types.Float64))
	bp := buildPartition(bsch, buildRows, 64*1024, func(i int, rec []byte) {
		types.PutValue(rec, bsch, 0, types.IntVal(int64(1+i)))
		types.PutValue(rec, bsch, 1, types.StrVal(fmt.Sprintf("Brand#%d%d", 1+i%5, 1+i/5%5)))
		types.PutValue(rec, bsch, 2, types.StrVal(fmt.Sprintf("STANDARD POLISHED TIN %03d", i*31%150)))
	})
	pp := buildPartition(psch, probeRows, 64*1024, func(i int, rec []byte) {
		types.PutValue(rec, psch, 0, types.IntVal(int64(1+i*7919%buildRows)))
		types.PutValue(rec, psch, 1, types.FloatVal(float64(1+i%50)))
		types.PutValue(rec, psch, 2, types.FloatVal(900+float64(i%100000)))
		types.PutValue(rec, psch, 3, types.FloatVal(float64(i%11)/100))
	})
	bkey, pkey := []expr.Expr{expr.NewCol(0, "p_partkey")}, []expr.Expr{expr.NewCol(0, "l_partkey")}
	keys, names := []expr.Expr{expr.NewCol(1, "p_brand"), expr.NewCol(2, "p_type")}, []string{"p_brand", "p_type"}
	sums := func(first int) []AggSpec {
		specs := make([]AggSpec, 3)
		for j := range specs {
			specs[j] = AggSpec{Func: Sum, Arg: expr.NewCol(first+j, fmt.Sprintf("s%d", j)), Name: fmt.Sprintf("s%d", j)}
		}
		return specs
	}
	for _, shape := range []string{"per-build-row", "matches"} {
		b.Run(shape, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var ha *HashAgg
				if shape == "per-build-row" {
					probeSums := sums(1)
					hj := NewHashJoinAgg(NewScan(bp), NewScan(pp), bsch, psch, bkey, pkey, probeSums)
					ha = NewHashAgg(hj, hj.Schema(), keys, names, sums(bsch.NumCols()+1), HybridAgg)
				} else {
					hj := NewHashJoin(NewScan(bp), NewScan(pp), bsch, psch, bkey, pkey)
					ha = NewHashAgg(hj, hj.Schema(), keys, names, sums(bsch.NumCols()+1), HybridAgg)
				}
				drainAll(b, ha)
				ha.Close()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/probeRows, "ns/probe-row")
		})
	}
}

// BenchmarkJoinWordKey is jcust's join: 15 000 customers built, 75 000
// orders probed on one Int64 key, every probe row matching one build
// row. With a column on both sides the join keys by word — no key bytes,
// chains compare hashes; with o_custkey + 0 on the probe side it keeps
// key bytes and compares them. Both sides hash alike either way, so the
// two cases differ only in the key form.
func BenchmarkJoinWordKey(b *testing.B) {
	const buildRows, probeRows = 15_000, 75_000
	bsch := types.NewSchema(types.Col("c_custkey", types.Int64), types.Char("c_mktsegment", 10))
	psch := types.NewSchema(types.Col("o_custkey", types.Int64), types.Col("o_totalprice", types.Float64))
	bp := buildPartition(bsch, buildRows, 64*1024, func(i int, rec []byte) {
		types.PutValue(rec, bsch, 0, types.IntVal(int64(1+i)))
		types.PutValue(rec, bsch, 1, types.StrVal(fmt.Sprintf("SEGMENT%d", i%5)))
	})
	pp := buildPartition(psch, probeRows, 64*1024, func(i int, rec []byte) {
		types.PutValue(rec, psch, 0, types.IntVal(int64(1+i*7919%buildRows)))
		types.PutValue(rec, psch, 1, types.FloatVal(float64(i%100000)/4))
	})
	col := expr.NewCol(0, "o_custkey")
	for _, tc := range []struct {
		name string
		key  expr.Expr
		word bool
	}{
		{"word-key", col, true},
		{"byte-key", expr.NewArith(expr.Add, col, expr.NewConst(types.IntVal(0))), false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hj := NewHashJoin(NewScan(bp), NewScan(pp), bsch, psch,
					[]expr.Expr{expr.NewCol(0, "c_custkey")}, []expr.Expr{tc.key})
				if hj.WordKey() != tc.word {
					b.Fatalf("WordKey = %v, want %v", hj.WordKey(), tc.word)
				}
				drainAll(b, hj)
				hj.Close()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/probeRows, "ns/probe-row")
		})
	}
}
