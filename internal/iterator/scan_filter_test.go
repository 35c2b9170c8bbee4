package iterator

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/types"
)

var twoColSch = types.NewSchema(types.Col("id", types.Int64), types.Col("v", types.Int64))

func TestScanSingleWorker(t *testing.T) {
	p := buildPartition(twoColSch, 1000, 1024, func(i int, rec []byte) {
		types.PutValue(rec, twoColSch, 0, types.IntVal(int64(i)))
		types.PutValue(rec, twoColSch, 1, types.IntVal(int64(i*2)))
	})
	out := runWorkers(NewScan(p.Schema, p), 1)
	if got := totalTuples(out); got != 1000 {
		t.Fatalf("scanned %d tuples, want 1000", got)
	}
	ids := collectInts(out, 0)
	for i := int64(0); i < 1000; i++ {
		if ids[i] != 1 {
			t.Fatalf("id %d seen %d times", i, ids[i])
		}
	}
}

func TestScanManyWorkersNoDuplicates(t *testing.T) {
	p := buildPartition(twoColSch, 5000, 512, func(i int, rec []byte) {
		types.PutValue(rec, twoColSch, 0, types.IntVal(int64(i)))
	})
	out := runWorkers(NewScan(p.Schema, p), 8)
	if got := totalTuples(out); got != 5000 {
		t.Fatalf("scanned %d tuples, want 5000", got)
	}
	ids := collectInts(out, 0)
	if len(ids) != 5000 {
		t.Fatalf("distinct ids = %d, want 5000", len(ids))
	}
}

func TestScanSeqNumbersUnique(t *testing.T) {
	p := buildPartition(twoColSch, 2000, 256, func(i int, rec []byte) {
		types.PutValue(rec, twoColSch, 0, types.IntVal(int64(i)))
	})
	out := runWorkers(NewScan(p.Schema, p), 4)
	seen := make(map[uint64]bool)
	for _, b := range out {
		if seen[b.Seq] {
			t.Fatalf("duplicate sequence number %d", b.Seq)
		}
		seen[b.Seq] = true
	}
}

func TestScanStampsVisitRateOne(t *testing.T) {
	p := buildPartition(twoColSch, 100, 1024, func(i int, rec []byte) {})
	out := runWorkers(NewScan(p.Schema, p), 2)
	for _, b := range out {
		if b.VisitRate != 1.0 {
			t.Fatalf("scan visit rate = %f, want 1", b.VisitRate)
		}
	}
}

func TestScanTermination(t *testing.T) {
	p := buildPartition(twoColSch, 100, 256, func(i int, rec []byte) {})
	s := NewScan(p.Schema, p)
	ctx := &Ctx{Term: &TermFlag{}}
	if st := s.Open(ctx); st != OK {
		t.Fatal(st)
	}
	ctx.Term.Request()
	if _, st := s.Next(ctx); st != Terminated {
		t.Fatalf("Next after term request = %v, want Terminated", st)
	}
}

func TestFilterSelectivityAndValues(t *testing.T) {
	p := buildPartition(twoColSch, 1000, 512, func(i int, rec []byte) {
		types.PutValue(rec, twoColSch, 0, types.IntVal(int64(i)))
		types.PutValue(rec, twoColSch, 1, types.IntVal(int64(i%10)))
	})
	pred := expr.NewCmp(expr.LT, expr.NewCol(1, "v"), expr.NewConst(types.IntVal(3)))
	f := NewFilter(NewScan(p.Schema, p), twoColSch, pred)
	out := runWorkers(f, 4)
	if got := totalTuples(out); got != 300 {
		t.Fatalf("filtered %d tuples, want 300", got)
	}
	for _, b := range out {
		for i := 0; i < b.NumTuples(); i++ {
			if v := b.Get(i, 1).I; v >= 3 {
				t.Fatalf("tuple with v=%d passed filter", v)
			}
		}
	}
	if sel := f.Selectivity(); sel < 0.29 || sel > 0.31 {
		t.Fatalf("running selectivity = %f, want ~0.3", sel)
	}
}

func TestFilterVisitRatePropagation(t *testing.T) {
	p := buildPartition(twoColSch, 10000, 2048, func(i int, rec []byte) {
		types.PutValue(rec, twoColSch, 1, types.IntVal(int64(i%4)))
	})
	pred := expr.NewCmp(expr.EQ, expr.NewCol(1, "v"), expr.NewConst(types.IntVal(0)))
	f := NewFilter(NewScan(p.Schema, p), twoColSch, pred)
	out := runWorkers(f, 2)
	// After the counters settle, block tails should read δ·V = 0.25·1.
	last := out[len(out)-1]
	if last.VisitRate < 0.2 || last.VisitRate > 0.35 {
		t.Fatalf("filtered visit rate = %f, want ≈0.25", last.VisitRate)
	}
}

func TestFilterBlockPerBlockPreservesSeq(t *testing.T) {
	p := buildPartition(twoColSch, 1000, 256, func(i int, rec []byte) {
		types.PutValue(rec, twoColSch, 0, types.IntVal(int64(i)))
		types.PutValue(rec, twoColSch, 1, types.IntVal(int64(i%2)))
	})
	sc := NewScan(p.Schema, p)
	f := NewFilter(sc, twoColSch, expr.NewCmp(expr.EQ, expr.NewCol(1, "v"),
		expr.NewConst(types.IntVal(0))))
	f.BlockPerBlock = true
	ctx := &Ctx{Term: &TermFlag{}}
	f.Open(ctx)
	nBlocks := 0
	seen := make(map[uint64]bool)
	for {
		b, st := f.Next(ctx)
		if st != OK {
			break
		}
		nBlocks++
		if seen[b.Seq] {
			t.Fatalf("block-per-block mode emitted duplicate seq %d", b.Seq)
		}
		seen[b.Seq] = true
	}
	// 1000 rows at 256-byte blocks of 16-byte rows = 63 input blocks,
	// one output block each.
	if nBlocks < 60 {
		t.Fatalf("block-per-block emitted %d blocks, expected one per input", nBlocks)
	}
}

func TestProject(t *testing.T) {
	p := buildPartition(twoColSch, 500, 512, func(i int, rec []byte) {
		types.PutValue(rec, twoColSch, 0, types.IntVal(int64(i)))
		types.PutValue(rec, twoColSch, 1, types.IntVal(int64(i+1)))
	})
	outSch := types.NewSchema(types.Col("sum", types.Int64))
	pr := NewProject(NewScan(p.Schema, p), twoColSch, outSch,
		[]expr.Expr{expr.NewArith(expr.Add, expr.NewCol(0, "id"), expr.NewCol(1, "v"))})
	out := runWorkers(pr, 3)
	if got := totalTuples(out); got != 500 {
		t.Fatalf("projected %d tuples", got)
	}
	sums := collectInts(out, 0)
	for i := int64(0); i < 500; i++ {
		if sums[2*i+1] != 1 {
			t.Fatalf("missing projected value %d", 2*i+1)
		}
	}
}
