package iterator

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/block"
	"repro/internal/expr"
	"repro/internal/types"
)

func TestSortAscDesc(t *testing.T) {
	sch := types.NewSchema(types.Col("k", types.Int64), types.Col("v", types.Int64))
	rng := rand.New(rand.NewSource(7))
	const rows = 4000
	keys := make([]int64, rows)
	for i := range keys {
		keys[i] = rng.Int63n(500)
	}
	p := buildPartition(sch, rows, 512, func(i int, rec []byte) {
		types.PutValue(rec, sch, 0, types.IntVal(keys[i]))
		types.PutValue(rec, sch, 1, types.IntVal(int64(i)))
	})
	s := NewSort(NewScan(p), sch, []SortKey{{E: expr.NewCol(0, "k")}})
	// Multi-worker open (parallel phases), single-worker ordered emit.
	var wg sync.WaitGroup
	ctxs := make([]*Ctx, 4)
	for w := range ctxs {
		ctxs[w] = &Ctx{WorkerID: w, Core: w, Term: &TermFlag{}}
		wg.Add(1)
		go func(c *Ctx) { defer wg.Done(); s.Open(c) }(ctxs[w])
	}
	wg.Wait()
	var got []int64
	for {
		b, st := s.Next(ctxs[0])
		if st != OK {
			break
		}
		for i := 0; i < b.NumTuples(); i++ {
			got = append(got, b.Get(i, 0).I)
		}
	}
	if len(got) != rows {
		t.Fatalf("sort emitted %d rows, want %d", len(got), rows)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] > got[i] {
			t.Fatalf("output not sorted at %d: %d > %d", i, got[i-1], got[i])
		}
	}
}

func TestSortDescMultiKey(t *testing.T) {
	sch := types.NewSchema(types.Col("a", types.Int64), types.Col("b", types.Int64))
	p := buildPartition(sch, 1000, 256, func(i int, rec []byte) {
		types.PutValue(rec, sch, 0, types.IntVal(int64(i%5)))
		types.PutValue(rec, sch, 1, types.IntVal(int64(i)))
	})
	s := NewSort(NewScan(p), sch, []SortKey{
		{E: expr.NewCol(0, "a"), Desc: true},
		{E: expr.NewCol(1, "b"), Desc: false},
	})
	ctx := &Ctx{Term: &TermFlag{}}
	s.Open(ctx)
	var prev []types.Value
	n := 0
	for {
		b, st := s.Next(ctx)
		if st != OK {
			break
		}
		for i := 0; i < b.NumTuples(); i++ {
			cur := []types.Value{b.Get(i, 0), b.Get(i, 1)}
			if prev != nil {
				if prev[0].I < cur[0].I {
					t.Fatalf("a not descending")
				}
				if prev[0].I == cur[0].I && prev[1].I > cur[1].I {
					t.Fatalf("b not ascending within a")
				}
			}
			prev = cur
			n++
		}
	}
	if n != 1000 {
		t.Fatalf("emitted %d rows", n)
	}
}

func TestSortEmptyInput(t *testing.T) {
	sch := types.NewSchema(types.Col("k", types.Int64))
	p := buildPartition(sch, 0, 256, func(int, []byte) {})
	s := NewSort(NewScan(p), sch, []SortKey{{E: expr.NewCol(0, "k")}})
	ctx := &Ctx{Term: &TermFlag{}}
	if st := s.Open(ctx); st != OK {
		t.Fatal(st)
	}
	if _, st := s.Next(ctx); st != End {
		t.Fatalf("empty sort Next = %v, want End", st)
	}
}

func TestTopN(t *testing.T) {
	sch := types.NewSchema(types.Col("k", types.Int64))
	rng := rand.New(rand.NewSource(11))
	const rows = 5000
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = rng.Int63n(100000)
	}
	p := buildPartition(sch, rows, 512, func(i int, rec []byte) {
		types.PutValue(rec, sch, 0, types.IntVal(vals[i]))
	})
	tn := NewTopN(NewScan(p), sch, []SortKey{{E: expr.NewCol(0, "k")}}, 20)
	out := runWorkers(tn, 4)
	if got := totalTuples(out); got != 20 {
		t.Fatalf("top-20 emitted %d rows", got)
	}
	// Reference: the 20 smallest values, in order.
	sorted := append([]int64(nil), vals...)
	for i := 0; i < len(sorted); i++ {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] < sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
		if i >= 20 {
			break
		}
	}
	var got []int64
	for _, b := range out {
		for i := 0; i < b.NumTuples(); i++ {
			got = append(got, b.Get(i, 0).I)
		}
	}
	for i, v := range got {
		if v != sorted[i] {
			t.Fatalf("top-n[%d] = %d, want %d", i, v, sorted[i])
		}
	}
}

func TestLimit(t *testing.T) {
	sch := types.NewSchema(types.Col("k", types.Int64))
	p := buildPartition(sch, 1000, 256, func(i int, rec []byte) {
		types.PutValue(rec, sch, 0, types.IntVal(int64(i)))
	})
	lim := NewLimit(NewScan(p), sch, 137)
	out := runWorkers(lim, 1)
	if got := totalTuples(out); got != 137 {
		t.Fatalf("limit emitted %d rows, want 137", got)
	}
}

func TestLimitParallelNeverExceeds(t *testing.T) {
	sch := types.NewSchema(types.Col("k", types.Int64))
	p := buildPartition(sch, 10000, 256, func(i int, rec []byte) {
		types.PutValue(rec, sch, 0, types.IntVal(int64(i)))
	})
	lim := NewLimit(NewScan(p), sch, 500)
	out := runWorkers(lim, 8)
	if got := totalTuples(out); got != 500 {
		t.Fatalf("parallel limit emitted %d rows, want exactly 500", got)
	}
}

func TestMerger(t *testing.T) {
	sch := types.NewSchema(types.Col("k", types.Int64))
	ch := make(chan *block.Block, 8)
	for i := 0; i < 5; i++ {
		b := block.New(sch, 256, nil)
		r := b.AppendRowTo()
		types.PutValue(r, sch, 0, types.IntVal(int64(i)))
		b.VisitRate = 0.5
		ch <- b
	}
	close(ch)
	m := NewMerger(&chanInbox{ch: ch}, sch)
	ctx := &Ctx{Term: &TermFlag{}}
	m.Open(ctx)
	n := 0
	seqs := make(map[uint64]bool)
	for {
		b, st := m.Next(ctx)
		if st != OK {
			break
		}
		if seqs[b.Seq] {
			t.Fatal("merger assigned duplicate seq")
		}
		seqs[b.Seq] = true
		n += b.NumTuples()
	}
	if n != 5 {
		t.Fatalf("merger delivered %d tuples", n)
	}
	if m.VisitRate() != 0.5 {
		t.Fatalf("merger visit rate = %f", m.VisitRate())
	}
	if m.TuplesIn.Load() != 5 {
		t.Fatalf("TuplesIn = %d", m.TuplesIn.Load())
	}
}

func TestMergerTermination(t *testing.T) {
	ch := make(chan *block.Block)
	m := NewMerger(&chanInbox{ch: ch}, types.NewSchema(types.Col("k", types.Int64)))
	ctx := &Ctx{Term: &TermFlag{}}
	ctx.Term.Request()
	if _, st := m.Next(ctx); st != Terminated {
		t.Fatalf("merger ignored termination: %v", st)
	}
}
