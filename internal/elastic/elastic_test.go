package elastic

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/expr"
	"repro/internal/iterator"
	"repro/internal/storage"
	"repro/internal/types"
)

var sch = types.NewSchema(types.Col("id", types.Int64), types.Col("v", types.Int64))

func makePartition(rows, blockSize int) *storage.Partition {
	return makePartitionSockets(rows, blockSize, 2)
}

// makePartitionSockets controls the emulated socket count; order-
// preservation tests use a single socket so the scan's block handoff
// order (which defines sequence numbers) is independent of worker
// socket placement.
func makePartitionSockets(rows, blockSize, sockets int) *storage.Partition {
	st := storage.NewStore(sockets)
	p := st.CreatePartition("t", sch)
	l := storage.NewLoader(p, blockSize)
	for i := 0; i < rows; i++ {
		rec := l.Row()
		types.PutValue(rec, sch, 0, types.IntVal(int64(i)))
		types.PutValue(rec, sch, 1, types.IntVal(int64(i%97)))
	}
	l.Close()
	return p
}

// drain consumes the elastic iterator until End, returning all blocks.
func drain(e *Elastic) []*block.Block {
	ctx := &iterator.Ctx{Term: &iterator.TermFlag{}}
	var out []*block.Block
	for {
		b, st := e.Next(ctx)
		if st != iterator.OK {
			return out
		}
		out = append(out, b)
	}
}

func countTuples(blocks []*block.Block) int {
	n := 0
	for _, b := range blocks {
		n += b.NumTuples()
	}
	return n
}

func TestElasticSingleWorkerCompletes(t *testing.T) {
	e := New(iterator.NewScan(makePartition(5000, 512)), Config{})
	e.Expand(0, 0)
	out := drain(e)
	if got := countTuples(out); got != 5000 {
		t.Fatalf("drained %d tuples, want 5000", got)
	}
	if !e.Finished() {
		t.Fatal("elastic iterator should be finished")
	}
	e.Close()
}

func TestElasticManyWorkersNoLossNoDup(t *testing.T) {
	e := New(iterator.NewScan(makePartition(20000, 256)), Config{BufferCap: 128})
	for i := 0; i < 6; i++ {
		e.Expand(i, i%2)
	}
	out := drain(e)
	seen := make(map[int64]bool)
	for _, b := range out {
		for i := 0; i < b.NumTuples(); i++ {
			id := b.Get(i, 0).I
			if seen[id] {
				t.Fatalf("duplicate tuple %d", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != 20000 {
		t.Fatalf("got %d distinct tuples, want 20000", len(seen))
	}
	e.Close()
}

func TestElasticExpandDuringRun(t *testing.T) {
	e := New(iterator.NewScan(makePartition(50000, 256)), Config{BufferCap: 32})
	e.Expand(0, 0)
	done := make(chan []*block.Block)
	go func() { done <- drain(e) }()
	for i := 1; i <= 4; i++ {
		time.Sleep(time.Millisecond)
		e.Expand(i, i%2)
	}
	out := <-done
	if got := countTuples(out); got != 50000 {
		t.Fatalf("drained %d tuples, want 50000", got)
	}
	e.Close()
}

func TestElasticShrinkDuringRun(t *testing.T) {
	e := New(iterator.NewScan(makePartition(50000, 256)), Config{BufferCap: 32})
	for i := 0; i < 4; i++ {
		e.Expand(i, i%2)
	}
	done := make(chan []*block.Block)
	go func() { done <- drain(e) }()
	time.Sleep(2 * time.Millisecond)
	// Shrink down to one worker while running.
	for i := 0; i < 3; i++ {
		if ch := e.Shrink(); ch != nil {
			select {
			case <-ch:
			case <-time.After(5 * time.Second):
				t.Fatal("shrink did not complete")
			}
		}
	}
	out := <-done
	if got := countTuples(out); got != 50000 {
		t.Fatalf("after shrink drained %d tuples, want 50000", got)
	}
	e.Close()
}

// The paper's core invariant: under arbitrary expand/shrink schedules no
// tuple is lost or duplicated.
func TestElasticRandomExpandShrinkProperty(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		const rows = 30000
		pred := expr.NewCmp(expr.LT, expr.NewCol(1, "v"), expr.NewConst(types.IntVal(50)))
		chain := iterator.NewFilter(iterator.NewScan(makePartition(rows, 256)), sch, pred)
		e := New(chain, Config{BufferCap: 64})
		e.Expand(0, 0)

		var wg sync.WaitGroup
		stop := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			core := 1
			for {
				select {
				case <-stop:
					return
				default:
				}
				if rng.Intn(2) == 0 {
					e.Expand(core, core%2)
					core++
				} else if e.Parallelism() > 1 {
					e.Shrink()
				}
				time.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
			}
		}()
		out := drain(e)
		close(stop)
		wg.Wait()
		e.Close()

		want := 0
		for i := 0; i < rows; i++ {
			if i%97 < 50 {
				want++
			}
		}
		if got := countTuples(out); got != want {
			t.Fatalf("trial %d: %d tuples, want %d", trial, got, want)
		}
	}
}

// Order preservation (Section 3.2(2)): with an order-preserving buffer
// and a 1:1 block chain, multi-worker output order equals single-worker
// order, under expansion and shrinkage.
func TestElasticOrderPreservation(t *testing.T) {
	run := func(workers int, churn bool) []int64 {
		pred := expr.NewCmp(expr.GE, expr.NewCol(1, "v"), expr.NewConst(types.IntVal(20)))
		f := iterator.NewFilter(iterator.NewScan(makePartitionSockets(20000, 256, 1)), sch, pred)
		f.BlockPerBlock = true
		e := New(f, Config{BufferCap: 256, OrderPreserving: true})
		for i := 0; i < workers; i++ {
			e.Expand(i, i%2)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if churn {
			wg.Add(1)
			go func() {
				defer wg.Done()
				core := workers
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if i%2 == 0 {
						e.Expand(core, core%2)
						core++
					} else if e.Parallelism() > 1 {
						e.Shrink()
					}
					time.Sleep(200 * time.Microsecond)
				}
			}()
		}
		var ids []int64
		for _, b := range drain(e) {
			for i := 0; i < b.NumTuples(); i++ {
				ids = append(ids, b.Get(i, 0).I)
			}
		}
		close(stop)
		wg.Wait()
		e.Close()
		return ids
	}
	want := run(1, false)
	got := run(5, true)
	if len(want) != len(got) {
		t.Fatalf("length mismatch: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("order diverges at %d: %d vs %d", i, want[i], got[i])
		}
	}
}

func TestElasticExpandDelayRecorded(t *testing.T) {
	e := New(iterator.NewScan(makePartition(10000, 256)), Config{})
	e.Expand(0, 0)
	e.Expand(1, 1)
	drain(e)
	delays := e.ExpandDelays()
	if len(delays) != 2 {
		t.Fatalf("recorded %d expand delays, want 2", len(delays))
	}
	for _, d := range delays {
		if d <= 0 || d > time.Second {
			t.Fatalf("implausible expansion delay %v", d)
		}
	}
	e.Close()
}

// slowIter emits empty-ish blocks with a per-block delay so workers stay
// demonstrably alive while the test expands/shrinks around them.
type slowIter struct {
	remaining int64
	delay     time.Duration
	cnt       int64
	mu        sync.Mutex
}

func (s *slowIter) Open(*iterator.Ctx) iterator.Status { return iterator.OK }

func (s *slowIter) Next(ctx *iterator.Ctx) (*block.Block, iterator.Status) {
	if ctx.Term.Requested() {
		return nil, iterator.Terminated
	}
	s.mu.Lock()
	if s.remaining <= 0 {
		s.mu.Unlock()
		return nil, iterator.End
	}
	s.remaining--
	seq := s.cnt
	s.cnt++
	s.mu.Unlock()
	time.Sleep(s.delay)
	b := block.New(sch, 256, nil)
	b.Seq = uint64(seq)
	r := b.AppendRowTo()
	types.PutValue(r, sch, 0, types.IntVal(seq))
	return b, iterator.OK
}

func (s *slowIter) Close() {}

func TestElasticShrinkDelayRecorded(t *testing.T) {
	e := New(&slowIter{remaining: 100000, delay: 200 * time.Microsecond},
		Config{BufferCap: 1024})
	e.Expand(0, 0)
	e.Expand(1, 0)
	go drain(e)
	time.Sleep(time.Millisecond)
	ch := e.Shrink()
	if ch == nil {
		t.Fatal("nothing to shrink")
	}
	select {
	case d := <-ch:
		if d < 0 || d > 5*time.Second {
			t.Fatalf("implausible shrink delay %v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shrink stuck")
	}
	e.Close()
}

func TestElasticMaxWorkers(t *testing.T) {
	e := New(iterator.NewScan(makePartition(100, 256)), Config{MaxWorkers: 2})
	if e.Expand(0, 0) < 0 || e.Expand(1, 0) < 0 {
		t.Fatal("expand under cap failed")
	}
	if e.Expand(2, 0) != -1 {
		t.Fatal("expand above MaxWorkers should fail")
	}
	drain(e)
	e.Close()
}

func TestElasticSnapshot(t *testing.T) {
	e := New(iterator.NewScan(makePartition(10000, 512)), Config{BufferCap: 16})
	e.Expand(0, 0)
	drain(e)
	p := e.Snapshot()
	if p.InTuples != 10000 {
		t.Fatalf("probe InTuples = %d", p.InTuples)
	}
	if p.OutTuples != 10000 {
		t.Fatalf("probe OutTuples = %d", p.OutTuples)
	}
	if !p.Finished {
		t.Fatal("probe should report finished")
	}
	e.Close()
}

func TestElasticCloseUnblocksWorkers(t *testing.T) {
	// Tiny buffer, no consumer: workers block on Insert; Close must
	// still return promptly.
	e := New(iterator.NewScan(makePartition(100000, 256)), Config{BufferCap: 2})
	e.Expand(0, 0)
	e.Expand(1, 0)
	time.Sleep(2 * time.Millisecond)
	done := make(chan struct{})
	go func() { e.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on blocked workers")
	}
}

func TestBufferBackpressureStats(t *testing.T) {
	b := NewBuffer(1, false)
	blk := block.New(sch, 256, nil)
	b.Insert(blk)
	done := make(chan struct{})
	go func() { b.Insert(blk); close(done) }()
	time.Sleep(time.Millisecond)
	if _, ok := b.Remove(); !ok {
		t.Fatal("remove failed")
	}
	<-done
	_, iw, _ := b.Stats()
	if iw == 0 {
		t.Fatal("insert wait not recorded")
	}
}

func TestBufferOrderedReleasesInSeqOrder(t *testing.T) {
	b := NewBuffer(64, true)
	// Insert out of order.
	for _, s := range []uint64{2, 0, 1, 4, 3} {
		blk := block.New(sch, 256, nil)
		blk.Seq = s
		b.Insert(blk)
	}
	b.CloseEOF()
	var got []uint64
	for {
		blk, ok := b.Remove()
		if !ok {
			break
		}
		got = append(got, blk.Seq)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] > got[i] {
			t.Fatalf("ordered buffer out of order: %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("got %d blocks", len(got))
	}
}

// everyN passes its child's blocks through and, on every every-th one,
// waits until ch is received from.
type everyN struct {
	iterator.Iterator
	n     atomic.Int64
	every int64
	ch    chan struct{}
}

func (s *everyN) Next(ctx *iterator.Ctx) (*block.Block, iterator.Status) {
	b, st := s.Iterator.Next(ctx)
	if st == iterator.OK && s.n.Add(1)%s.every == 0 {
		s.ch <- struct{}{}
	}
	return b, st
}

// TestElasticRandomResizeAggregatingJoin drives a join that aggregates
// per build row (iterator.NewHashJoinAgg) under the hash aggregation
// that merges its partials, with workers added and removed at random
// through the probe: the states live in the join's shared table, so no
// resize may lose or double a match. Every group must equal the answer
// computed here by plain loops, NULL arguments (v/w where w is 0)
// included.
func TestElasticRandomResizeAggregatingJoin(t *testing.T) {
	dims := types.NewSchema(types.Col("k", types.Int64), types.Col("g", types.Int64))
	facts := types.NewSchema(types.Col("fk", types.Int64), types.Col("v", types.Int64), types.Col("w", types.Int64))
	const dimRows, factRows = 3000, 200000
	load := func(s *types.Schema, rows int, fill func(i int, rec []byte)) *storage.Partition {
		p := storage.NewStore(2).CreatePartition("t", s)
		l := storage.NewLoader(p, 256)
		for i := 0; i < rows; i++ {
			fill(i, l.Row())
		}
		l.Close()
		return p
	}
	dp := load(dims, dimRows, func(i int, rec []byte) {
		types.PutValue(rec, dims, 0, types.IntVal(int64(i)))
		types.PutValue(rec, dims, 1, types.IntVal(int64(i%37)))
	})
	fp := load(facts, factRows, func(i int, rec []byte) {
		types.PutValue(rec, facts, 0, types.IntVal(int64(i*7919%2500))) // keys 2500 and up match nothing
		types.PutValue(rec, facts, 1, types.IntVal(int64(i%100)))
		types.PutValue(rec, facts, 2, types.IntVal(int64(i%5)))
	})
	type group struct {
		rows, sum, nonNull int64
		max                float64
	}
	want := map[int64]*group{}
	for i := 0; i < factRows; i++ {
		g := int64(i * 7919 % 2500 % 37)
		if want[g] == nil {
			want[g] = &group{}
		}
		w := want[g]
		w.rows++
		w.sum += int64(i % 100)
		if d := i % 5; d != 0 {
			if q := float64(i%100) / float64(d); w.nonNull == 0 || q > w.max {
				w.max = q
			}
			w.nonNull++
		}
	}

	v, ratio := expr.NewCol(1, "v"), expr.NewArith(expr.Div, expr.NewCol(1, "v"), expr.NewCol(2, "w"))
	aggs := []iterator.AggSpec{
		{Func: iterator.Sum, Arg: v, Name: "s"},
		{Func: iterator.Count, Arg: ratio, Name: "n"},
		{Func: iterator.Max, Arg: ratio, Name: "m"},
	}
	// Over the join's output (k, g, __matches, s, n, m): COUNT(*) sums the
	// match count, and the maximum reads a partial that saw no value as
	// NULL.
	col := func(i int) expr.Expr { return expr.NewCol(i, "") }
	seen := expr.NewCmp(expr.GT, col(4), expr.NewConst(types.IntVal(0)))
	merges := []iterator.AggSpec{
		{Func: iterator.Sum, Arg: col(2), Name: "rows"},
		{Func: iterator.Sum, Arg: col(3), Name: "sum"},
		{Func: iterator.Sum, Arg: col(4), Name: "nonNull"},
		{Func: iterator.Max, Arg: expr.NewCase([]expr.When{{Cond: seen, Then: col(5)}}, nil), Name: "max"},
	}
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		// Every 16th probe block waits for one resize, so the churn
		// happens while the join probes however the host schedules it.
		probe := &everyN{Iterator: iterator.NewScan(fp), every: 16, ch: make(chan struct{})}
		hj := iterator.NewHashJoinAgg(iterator.NewScan(dp), probe, dims, facts,
			[]expr.Expr{expr.NewCol(0, "k")}, []expr.Expr{expr.NewCol(0, "fk")}, aggs)
		ha := iterator.NewHashAgg(hj, hj.Schema(), []expr.Expr{expr.NewCol(1, "g")}, []string{"g"},
			merges, iterator.HybridAgg)
		e := New(ha, Config{BufferCap: 64})
		e.Expand(0, 0)
		var wg sync.WaitGroup
		stop := make(chan struct{})
		resizes := 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			core := 1
			for {
				select {
				case <-stop:
					return
				case <-probe.ch:
				}
				if rng.Intn(2) == 0 {
					e.Expand(core, core%2)
					core++
					resizes++
				} else if e.PendingWorkers() > 1 {
					e.Shrink()
					resizes++
				}
			}
		}()
		out := drain(e)
		close(stop)
		wg.Wait()
		e.Close()
		if resizes < 10 {
			t.Fatalf("trial %d: %d resizes while the join probed; the churn did not happen", trial, resizes)
		}
		got := 0
		for _, b := range out {
			for i := 0; i < b.NumTuples(); i++ {
				got++
				g := b.Get(i, 0).I
				w := want[g]
				if w == nil || b.Get(i, 1).I != w.rows || b.Get(i, 2).I != w.sum ||
					b.Get(i, 3).I != w.nonNull || b.Get(i, 4).F != w.max {
					t.Fatalf("trial %d: group %d is (%v, %v, %v, %v), want %+v", trial, g,
						b.Get(i, 1), b.Get(i, 2), b.Get(i, 3), b.Get(i, 4), w)
				}
			}
		}
		if got != len(want) {
			t.Fatalf("trial %d: %d groups, want %d", trial, got, len(want))
		}
	}
}
