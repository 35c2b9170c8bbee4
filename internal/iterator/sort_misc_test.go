package iterator

import (
	"math/rand"
	"runtime"
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
	s := NewSort(NewScan(p.Schema, p), sch, []SortKey{{E: expr.NewCol(0, "k")}})
	// Multi-worker open (parallel phases), single-worker ordered emit.
	var wg sync.WaitGroup
	ctxs := make([]*Ctx, 4)
	for w := range ctxs {
		ctxs[w] = &Ctx{WorkerID: w, Term: &TermFlag{}}
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
	s := NewSort(NewScan(p.Schema, p), sch, []SortKey{
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
	s := NewSort(NewScan(p.Schema, p), sch, []SortKey{{E: expr.NewCol(0, "k")}})
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
	tn := NewTopN(NewScan(p.Schema, p), sch, []SortKey{{E: expr.NewCol(0, "k")}}, 20)
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

// hookNext calls before and after with the worker's context around
// every Next of the wrapped iterator.
type hookNext struct {
	Iterator
	before, after func(ctx *Ctx)
}

func (h *hookNext) Next(ctx *Ctx) (*block.Block, Status) {
	h.before(ctx)
	b, st := h.Iterator.Next(ctx)
	h.after(ctx)
	return b, st
}

// TestTopNLateWorkerKeepsParkedHeap: a worker shrunk mid-input parks
// its heap for the merge. A worker expanded after the input phase
// passed, while the merge runs, must leave that heap to the merge; when
// it took the heap, the heap's rows (here the best one) were lost.
func TestTopNLateWorkerKeepsParkedHeap(t *testing.T) {
	sch := types.NewSchema(types.Col("k", types.Int64))
	const n = 50000 // a large heap keeps the merge busy before it drains the pool
	// The first block holds key 0 alone; the others hold keys 1..n.
	in := &chanInbox{ch: make(chan *block.Block, n/512+2)}
	rec := make([]byte, sch.Stride())
	for next := int64(0); next <= n; {
		b := block.New(sch, 512*sch.Stride(), nil)
		for !b.Full() && next <= n {
			types.PutValue(rec, sch, 0, types.IntVal(next))
			b.AppendRows(rec)
			if next++; next == 1 {
				break
			}
		}
		in.ch <- b
	}
	close(in.ch)
	worker := &Ctx{WorkerID: 0, Term: &TermFlag{}}
	shrunk := &Ctx{WorkerID: 1, Term: &TermFlag{}}
	var reached sync.Once
	atNext, parked := make(chan struct{}), make(chan struct{})
	child := &hookNext{Iterator: NewMerger(in, sch),
		before: func(ctx *Ctx) {
			if ctx == worker { // holding a fresh heap of its own
				reached.Do(func() { close(atNext) })
				<-parked
			}
		},
		after: func(ctx *Ctx) {
			if ctx == shrunk {
				ctx.Term.Request() // after its first block: key 0
			}
		}}
	tn := NewTopN(child, sch, []SortKey{{E: expr.NewCol(0, "k")}}, n)
	opened := make(chan Status)
	go func() { opened <- tn.Open(worker) }()
	<-atNext
	if st := tn.Open(shrunk); st != Terminated {
		t.Fatalf("shrunk worker Open = %v, want Terminated", st)
	}
	close(parked)
	for !tn.done.Passed() {
		runtime.Gosched()
	}
	if st := tn.Open(&Ctx{WorkerID: 2, Term: &TermFlag{}}); st != OK {
		t.Fatalf("late worker Open = %v, want OK", st)
	}
	if st := <-opened; st != OK {
		t.Fatalf("worker Open = %v, want OK", st)
	}
	b, st := tn.Next(worker)
	if st != OK || b.NumTuples() != n {
		t.Fatalf("top-%d emitted %v rows (status %v)", n, b.NumTuples(), st)
	}
	if k := b.Get(0, 0).I; k != 0 {
		t.Fatalf("top-%d starts at %d, want 0: the shrunk worker's heap was lost", n, k)
	}
}

func TestLimit(t *testing.T) {
	sch := types.NewSchema(types.Col("k", types.Int64))
	p := buildPartition(sch, 1000, 256, func(i int, rec []byte) {
		types.PutValue(rec, sch, 0, types.IntVal(int64(i)))
	})
	lim := NewLimit(NewScan(p.Schema, p), sch, 137)
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
	lim := NewLimit(NewScan(p.Schema, p), sch, 500)
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
		r := make([]byte, b.Schema().Stride())
		types.PutValue(r, sch, 0, types.IntVal(int64(i)))
		b.AppendRows(r)
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
