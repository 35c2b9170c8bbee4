package iterator

import (
	"sync/atomic"
	"testing"

	"repro/internal/block"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/types"
)

// Tests of the block-ownership rule (DESIGN.md, "Block ownership") at
// the operators: whoever copies out of its input recycles it. The
// tracker is the witness — Recycle is what frees a block's bytes — and
// under the race detector the arena's poison makes a Recycle that came
// before the copy show up as wrong rows in every other suite.

// freshSource is a stage beginner that keeps nothing it returns: each
// Next hands the caller a new tracked copy of the partition's next
// block, the way a merger hands on a decoded frame.
type freshSource struct {
	part *storage.Partition
	cur  atomic.Int64
}

func (s *freshSource) Open(*Ctx) Status { return OK }
func (s *freshSource) Close()           {}

func (s *freshSource) Next(ctx *Ctx) (*block.Block, Status) {
	if ctx.Term.Requested() {
		return nil, Terminated
	}
	i := int(s.cur.Add(1) - 1)
	if i >= len(s.part.Blocks) {
		return nil, End
	}
	src := s.part.Blocks[i]
	b := block.New(src.Schema(), src.NumTuples()*src.Schema().Stride(), ctx.Tracker)
	var rec []byte
	for r := 0; r < src.NumTuples(); r++ {
		rec = src.ReadRow(r, rec)
		b.AppendRows(rec)
	}
	b.Seq = uint64(i)
	return b, OK
}

func ownershipPartition(rows int) (*types.Schema, *storage.Partition) {
	sch := types.NewSchema(types.Col("k", types.Int64), types.Col("v", types.Float64), types.Char("s", 24))
	return sch, buildPartition(sch, rows, 16*1024, func(i int, rec []byte) {
		types.PutValue(rec, sch, 0, types.IntVal(int64(i%1000)))
		types.PutValue(rec, sch, 1, types.FloatVal(float64(i)))
		types.PutValue(rec, sch, 2, types.StrVal("carefully final deposits"))
	})
}

// TestConsumersRecycleTheirInput drives every operator that copies out
// of its input over blocks nobody else holds. Once the test, as the
// consumer of the output, has recycled that too and the operator is
// closed, no byte may still be tracked.
func TestConsumersRecycleTheirInput(t *testing.T) {
	const rows = 20_000
	sch, part := ownershipPartition(rows)
	_, dim := ownershipPartition(500) // keys 0..499, one row each
	k, v := expr.NewCol(0, "k"), expr.NewCol(1, "v")
	half := expr.NewCmp(expr.LT, k, expr.NewConst(types.IntVal(500)))
	keys := []expr.Expr{k}
	spill := func(hj *HashJoin) *HashJoin {
		hj.Mem = &MemConfig{Acct: block.NewBudget("node", 64<<10).Sub("join"), SpillDir: t.TempDir(), Op: "hashjoin"}
		return hj
	}
	fresh := func() Iterator { return &freshSource{part: part} }
	cases := []struct {
		name     string
		mk       func() Iterator
		wantRows int // -1: not checked
	}{
		{"filter", func() Iterator { return NewFilter(fresh(), sch, half) }, rows / 2},
		{"filter-block-per-block", func() Iterator {
			f := NewFilter(fresh(), sch, half)
			f.BlockPerBlock = true
			return f
		}, rows / 2},
		{"project", func() Iterator {
			return NewProject(fresh(), sch, types.NewSchema(types.Col("k", types.Int64), types.Char("s", 24)),
				[]expr.Expr{k, expr.NewCol(2, "s")})
		}, rows},
		{"join-probe", func() Iterator { return NewHashJoin(NewScan(dim.Schema, dim), fresh(), sch, sch, keys, keys) }, rows / 2},
		{"join-build", func() Iterator { return NewHashJoin(fresh(), NewScan(dim.Schema, dim), sch, sch, keys, keys) }, rows / 2},
		{"join-spill", func() Iterator {
			return spill(NewHashJoin(fresh(), &freshSource{part: dim}, sch, sch, keys, keys))
		}, rows / 2},
		{"hashagg", func() Iterator {
			return NewHashAgg(fresh(), sch, keys, []string{"k"}, []AggSpec{{Func: Sum, Arg: v, Name: "s"},
				{Func: Max, Arg: expr.NewCol(2, "s"), Name: "m"}}, HybridAgg)
		}, 1000},
		{"sort", func() Iterator { return NewSort(fresh(), sch, []SortKey{{E: v, Desc: true}}) }, rows},
		{"topn", func() Iterator { return NewTopN(fresh(), sch, []SortKey{{E: v}}, 37) }, 37},
		{"limit", func() Iterator { return NewLimit(fresh(), sch, 1234) }, 1234},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := block.NewTracker()
			it := c.mk()
			out := runWorkersTracked(it, 3, tr)
			if got := totalTuples(out); c.wantRows >= 0 && got != c.wantRows {
				t.Errorf("%d output rows, want %d", got, c.wantRows)
			}
			if hj, ok := it.(*HashJoin); ok && hj.Mem != nil && hj.Spilled() == 0 {
				t.Error("nothing spilled; the budget is not binding")
			}
			if tr.Peak() == 0 {
				t.Fatal("nothing was tracked; the check would be vacuous")
			}
			for _, b := range out {
				b.Recycle()
			}
			it.Close()
			if cur := tr.Current(); cur != 0 {
				t.Errorf("%d bytes still tracked after the output was recycled and the operator closed", cur)
			}
		})
	}
}

// TestSenderRecyclesWhatItMayNotKeep: a repartitioning sender recycles
// every input block once its rows are scattered, and a forwarding one
// recycles the block after a Send that only borrowed it. On a transport
// that takes the pointer the forwarded block is the receiver's.
func TestSenderRecyclesWhatItMayNotKeep(t *testing.T) {
	sch, part := ownershipPartition(20_000)
	for _, c := range []struct {
		name     string
		keys     []expr.Expr
		copies   bool
		received bool // the outbox ends up owning tracked blocks
	}{
		{"repartition/copying", []expr.Expr{expr.NewCol(0, "k")}, true, false},
		{"repartition/pointer", []expr.Expr{expr.NewCol(0, "k")}, false, false},
		{"forward/copying", nil, true, false},
		{"forward/pointer", nil, false, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := block.NewTracker()
			out := newChanOutbox(3)
			s := NewSender(&freshSource{part: part}, sch, out, c.keys)
			s.SendCopies = c.copies
			if err := s.Run(&Ctx{Term: &TermFlag{}, Tracker: tr}); err != nil {
				t.Fatal(err)
			}
			if tr.Peak() == 0 {
				t.Fatal("nothing was tracked; the check would be vacuous")
			}
			if got := tr.Current() != 0; got != c.received {
				t.Fatalf("%d bytes tracked after Run; receiver owns the input blocks: %v", tr.Current(), c.received)
			}
			for _, blocks := range out.dests {
				for _, b := range blocks {
					b.Recycle()
				}
			}
			if cur := tr.Current(); cur != 0 {
				t.Errorf("%d bytes still tracked after the receiver recycled", cur)
			}
		})
	}
}

// TestTrackerIsLiveBytes: with consumers recycling, a query's block
// tracker reads what is in flight. A 300 000-row scan → filter →
// aggregate holds one filter output per worker at a time, then the
// aggregate's output; before the rule it held every filter output the
// query ever produced (about 9 MB here) until the query ended.
func TestTrackerIsLiveBytes(t *testing.T) {
	const rows, workers = 300_000, 4
	sch := types.NewSchema(types.Col("k", types.Int64), types.Col("v", types.Float64), types.Char("s", 24))
	part := buildPartition(sch, rows, block.DefaultSize, func(i int, rec []byte) {
		types.PutValue(rec, sch, 0, types.IntVal(int64(i%10000)))
		types.PutValue(rec, sch, 1, types.FloatVal(float64(i)))
		types.PutValue(rec, sch, 2, types.StrVal("carefully final deposits"))
	})
	k := expr.NewCol(0, "k")
	f := NewFilter(NewScan(part.Schema, part), sch, expr.NewCmp(expr.LT, k, expr.NewConst(types.IntVal(7500))))
	ha := NewHashAgg(f, sch, []expr.Expr{k}, []string{"k"},
		[]AggSpec{{Func: Sum, Arg: expr.NewCol(1, "v"), Name: "s"}}, HybridAgg)
	tr := block.NewTracker()
	out := runWorkersTracked(ha, workers, tr)
	if got := totalTuples(out); got != 7500 {
		t.Fatalf("%d groups, want 7500", got)
	}
	intermediates := int64(rows) * 3 / 4 * int64(sch.Stride())
	// A filter output is at most one input block's worth, and grows by
	// doubling: two blocks' worth per worker is the ceiling, the
	// aggregate's 120 KB of output fits under it.
	limit := int64(2 * workers * block.DefaultSize)
	if peak := tr.Peak(); peak > limit {
		t.Errorf("tracker peaked at %d bytes, want at most %d (%d workers x 2 blocks); the filter's outputs sum to %d",
			peak, limit, workers, intermediates)
	}
	for _, b := range out {
		b.Recycle()
	}
	ha.Close()
	if cur := tr.Current(); cur != 0 {
		t.Errorf("%d bytes still tracked at the end", cur)
	}
}
