package iterator

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/block"
	"repro/internal/expr"
	"repro/internal/telemetry"
	"repro/internal/types"
)

// The aggregating join (NewHashJoinAgg) is held to the aggregation
// oracle of hashagg_oracle_test.go: the join's per-build-row partials,
// merged by a HashAgg the way the planner merges them, must equal
// oracleAgg over the plain join's rows, byte for byte.

// joinAggBuildSchema is the build side: bk, the join key, against the
// probe's ki (1 to card); bg, a label; bn, a number.
var joinAggBuildSchema = types.NewSchema(
	types.Col("bk", types.Int64), types.Char("bg", 4), types.Col("bn", types.Int64))

// joinAggBuildBlocks draws build rows over keys 1 to card*5/4: a fifth
// of the keys match no probe row, and a key has one to three rows (a
// many-to-many join). Unmatched keys carry labels of their own, so an
// emitted build row that matched nothing would make a group.
func joinAggBuildBlocks(rng *rand.Rand, card int) []*block.Block {
	sch := joinAggBuildSchema
	var out []*block.Block
	b := block.New(sch, 0, nil)
	for k := 1; k <= card*5/4; k++ {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			if b.NumTuples() == 300 {
				b.MarkShared()
				out = append(out, b)
				b = block.New(sch, 0, nil)
			}
			b.EnsureRoom(1)
			rec := b.AppendRowTo()
			label := fmt.Sprintf("g%d", k%7)
			if k > card {
				label = fmt.Sprintf("u%d", k%3)
			}
			types.PutValue(rec, sch, 0, types.IntVal(int64(k)))
			types.PutValue(rec, sch, 1, types.StrVal(label))
			types.PutValue(rec, sch, 2, types.IntVal(int64(rng.Intn(4))))
		}
	}
	b.MarkShared()
	return append(out, b)
}

// joinRows is the plain join of build and probe on bk = ki, as rows of
// build ++ probe: what the oracle aggregates.
func joinRows(build, probe []*block.Block, sch *types.Schema) []*block.Block {
	byKey := map[int64][][]byte{}
	for _, b := range build {
		for i := 0; i < b.NumTuples(); i++ {
			k := b.Get(i, 0).I
			byKey[k] = append(byKey[k], b.Row(i))
		}
	}
	out := block.New(sch, 0, nil)
	for _, p := range probe {
		for i := 0; i < p.NumTuples(); i++ {
			for _, rec := range byKey[p.Get(i, 0).I] {
				out.EnsureRoom(1)
				dst := out.AppendRowTo()
				copy(dst, rec)
				copy(dst[len(rec):], p.Row(i))
			}
		}
	}
	return []*block.Block{out}
}

// joinAggCase is one aggregation over the join: keys on build columns
// and specs over the joined schema, with the join's aggregates and the
// merging specs derived from them as the planner derives them.
type joinAggCase struct {
	keys   []expr.Expr
	names  []string
	specs  []AggSpec // over the joined schema
	aggs   []AggSpec // the join's, over the probe schema
	merges []AggSpec // the aggregation's, over the join's output
}

// newJoinAggCase splits specs (over build ++ probe, arguments reading
// probe columns) into the join's aggregates and the merges: COUNT(*)
// sums the match count, COUNT and SUM sum their partial, and an extreme
// whose guard[j] names the count of its argument reads a partial that
// saw only NULLs as NULL.
func newJoinAggCase(t *testing.T, keys []expr.Expr, specs []AggSpec, guard map[int]int) *joinAggCase {
	nb := joinAggBuildSchema.NumCols()
	c := &joinAggCase{keys: keys, specs: specs}
	for i := range keys {
		c.names = append(c.names, fmt.Sprintf("k%d", i))
	}
	col := make([]expr.Expr, len(specs))
	for j, s := range specs {
		if s.Arg == nil {
			col[j] = expr.NewCol(nb, MatchCount)
			continue
		}
		arg, ok := expr.Rebase(s.Arg, nb)
		if !ok {
			t.Fatalf("spec %d reads a build column", j)
		}
		col[j] = expr.NewCol(nb+1+len(c.aggs), s.Name)
		c.aggs = append(c.aggs, AggSpec{Func: s.Func, Arg: arg, Name: s.Name})
	}
	for j, s := range specs {
		f, arg := s.Func, col[j]
		if f == Count {
			f = Sum
		}
		if g, ok := guard[j]; ok {
			seen := expr.NewCmp(expr.GT, col[g], expr.NewConst(types.IntVal(0)))
			arg = expr.NewCase([]expr.When{{Cond: seen, Then: arg}}, nil)
		}
		c.merges = append(c.merges, AggSpec{Func: f, Arg: arg, Name: s.Name})
	}
	return c
}

// joinAggSpecs covers every function the join carries over every
// argument kind, COUNT(*), and vf/z, NULL where z is zero, under COUNT,
// SUM, MIN and MAX; guard pairs each extreme of vf/z with its count.
func joinAggSpecs() ([]AggSpec, map[int]int) {
	nb := joinAggBuildSchema.NumCols()
	p := func(i int) expr.Expr { return expr.NewCol(nb+i, oracleSchema.Cols[i].Name) }
	vi, vf, vd, vs, z := p(4), p(5), p(6), p(7), p(8)
	ratio := expr.NewArith(expr.Div, vf, z)
	specs := []AggSpec{
		{Func: Count},
		{Func: Sum, Arg: vi}, {Func: Sum, Arg: vf}, {Func: Sum, Arg: vd},
		{Func: Count, Arg: vs}, {Func: Count, Arg: ratio}, {Func: Sum, Arg: ratio},
		{Func: Min, Arg: vi}, {Func: Max, Arg: vd}, {Func: Max, Arg: vs}, {Func: Min, Arg: vs},
		{Func: Min, Arg: ratio}, {Func: Max, Arg: ratio},
		{Func: Sum, Arg: expr.NewArith(expr.Mul, vi, expr.NewConst(types.IntVal(3)))},
	}
	for j := range specs {
		specs[j].Name = fmt.Sprintf("a%d", j)
	}
	return specs, map[int]int{11: 5, 12: 5}
}

// run aggregates the join of build and probe through the aggregating
// join and a HashAgg, driven by runElastic over the probe source.
func (c *joinAggCase) run(build, probe []*block.Block, workers int, resize bool, mem *MemConfig, tr *block.Tracker) ([]*block.Block, *HashJoin, *HashAgg) {
	bk, ki := expr.NewCol(0, "bk"), expr.NewCol(0, "ki")
	src := &blockSource{blocks: probe}
	hj := NewHashJoinAgg(&blockSource{blocks: build}, src, joinAggBuildSchema, oracleSchema,
		[]expr.Expr{bk}, []expr.Expr{ki}, c.aggs)
	hj.Mem = mem
	ha := NewHashAgg(hj, hj.Schema(), c.keys, c.names, c.merges, SharedAgg)
	return runElastic(ha, src, workers, resize, tr), hj, ha
}

// want is the oracle's answer under outSch.
func (c *joinAggCase) want(build, probe []*block.Block, outSch *types.Schema) map[string]int {
	joined := joinAggBuildSchema.Concat(oracleSchema)
	return oracleAgg(joinRows(build, probe, joined), joined, outSch, c.keys, c.specs)
}

// TestHashJoinAggAgainstOracle runs the aggregating join under a HashAgg
// on one and four workers, with and without a shrink and an expand in
// the middle of the probe, and compares the merged rows with the
// oracle's over the plain join. The shapes group by a build label (many
// build rows per group), by the join key itself (a group per build
// row: one that matched nothing must not appear), by two build
// columns, and by nothing; and probe nothing at all.
func TestHashJoinAggAgainstOracle(t *testing.T) {
	bk, bg, bn := expr.NewCol(0, "bk"), expr.NewCol(1, "bg"), expr.NewCol(2, "bn")
	specs, guard := joinAggSpecs()
	shapes := []struct {
		name       string
		keys       []expr.Expr
		rows, card int
	}{
		{"label", []expr.Expr{bg}, 4000, 300},
		{"join-key", []expr.Expr{bk}, 4000, 300},
		{"two-build-columns", []expr.Expr{bg, bn}, 4000, 300},
		{"scalar", nil, 4000, 300},
		{"many-groups", []expr.Expr{bk}, 6000, 3000},
		{"no-probe-rows", []expr.Expr{bg}, 0, 40},
		{"scalar-no-probe-rows", nil, 0, 40},
	}
	for si, sh := range shapes {
		rng := rand.New(rand.NewSource(int64(71 + si)))
		build := joinAggBuildBlocks(rng, sh.card)
		probe := oracleBlocks(rng, sh.rows, sh.card)
		c := newJoinAggCase(t, sh.keys, specs, guard)
		var want map[string]int
		for _, workers := range []int{1, 4} {
			for _, resize := range []bool{false, true} {
				name := fmt.Sprintf("%s/w%d/resize=%v", sh.name, workers, resize)
				tr := block.NewTracker()
				out, hj, ha := c.run(build, probe, workers, resize, nil, tr)
				if want == nil {
					want = c.want(build, probe, ha.Schema())
				}
				checkAggOutput(t, name, out, want, workers+1)
				ha.Close()
				if hj.MemBytes() != 0 {
					t.Errorf("%s: join holds %d bytes after Close", name, hj.MemBytes())
				}
				if cur := tr.Current(); cur != 0 {
					t.Errorf("%s: %d tracked bytes after the output was released", name, cur)
				}
			}
		}
	}
}

// TestHashJoinAggSpill gives the join a budget far below its build, so
// shards spill at build time and are re-joined from their files after
// the probe, each with accumulators of its own: the merged rows must
// equal the oracle's, and the account must be back at zero after Close.
func TestHashJoinAggSpill(t *testing.T) {
	bg := expr.NewCol(1, "bg")
	specs, guard := joinAggSpecs()
	rng := rand.New(rand.NewSource(9))
	build := joinAggBuildBlocks(rng, 6000)
	probe := oracleBlocks(rng, 8000, 6000)
	for _, keys := range [][]expr.Expr{{bg}, nil} {
		c := newJoinAggCase(t, keys, specs, guard)
		for _, workers := range []int{1, 4} {
			for _, resize := range []bool{false, true} {
				name := fmt.Sprintf("keys=%d/w%d/resize=%v", len(keys), workers, resize)
				acct := block.NewBudget("node", 48<<10).Sub("join")
				mem := &MemConfig{Acct: acct, SpillDir: t.TempDir(), Op: "hashjoin", Scope: telemetry.NewScope("test")}
				out, hj, ha := c.run(build, probe, workers, resize, mem, nil)
				if err := hj.SpillError(); err != nil {
					t.Fatalf("%s: spill error: %v", name, err)
				}
				if hj.Spilled() == 0 {
					t.Fatalf("%s: no shard spilled; the budget is not binding", name)
				}
				checkAggOutput(t, name, out, c.want(build, probe, ha.Schema()), workers+1)
				ha.Close()
				if cur := acct.Current(); cur != 0 {
					t.Errorf("%s: join account holds %d bytes after Close", name, cur)
				}
			}
		}
	}
}

// TestHashJoinAggPerMatch gives the join a budget its build pages
// already overrun and nowhere to spill: every shard's accumulators are
// refused, and each match leaves as a partial row of its own (count 1),
// which the aggregation above merges like any other.
func TestHashJoinAggPerMatch(t *testing.T) {
	bg := expr.NewCol(1, "bg")
	specs, guard := joinAggSpecs()
	rng := rand.New(rand.NewSource(13))
	build := joinAggBuildBlocks(rng, 2000)
	probe := oracleBlocks(rng, 5000, 2000)
	c := newJoinAggCase(t, []expr.Expr{bg}, specs, guard)
	for _, workers := range []int{1, 4} {
		name := fmt.Sprintf("w%d", workers)
		acct := block.NewBudget("node", 16<<10).Sub("join")
		mem := &MemConfig{Acct: acct, Op: "hashjoin", Scope: telemetry.NewScope("test")}
		out, hj, ha := c.run(build, probe, workers, false, mem, nil)
		perMatch := 0
		for i := range hj.shards {
			if hj.shards[i].perMatch {
				perMatch++
			}
		}
		if perMatch == 0 {
			t.Fatalf("%s: every shard got accumulators; the budget is not binding", name)
		}
		checkAggOutput(t, name, out, c.want(build, probe, ha.Schema()), workers+1)
		ha.Close()
		if cur := acct.Current(); cur != 0 {
			t.Errorf("%s: join account holds %d bytes after Close", name, cur)
		}
	}
}

// TestPerBuildRowEmitsMatchedRows checks the join's own output: one row
// per build row that matched, carrying its match count — and none for a
// build row that matched nothing.
func TestPerBuildRowEmitsMatchedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	build := joinAggBuildBlocks(rng, 200)
	probe := oracleBlocks(rng, 3000, 200)
	matches := map[int64]int64{} // build key → probe rows with that key
	for _, p := range probe {
		for i := 0; i < p.NumTuples(); i++ {
			matches[p.Get(i, 0).I]++
		}
	}
	want := map[string]int{}
	for _, b := range build {
		for i := 0; i < b.NumTuples(); i++ {
			if n := matches[b.Get(i, 0).I]; n > 0 {
				want[fmt.Sprintf("%d/%s/%d", b.Get(i, 0).I, b.Get(i, 1).S, n)]++
			}
		}
	}
	hj := NewHashJoinAgg(&blockSource{blocks: build}, &blockSource{blocks: probe},
		joinAggBuildSchema, oracleSchema,
		[]expr.Expr{expr.NewCol(0, "bk")}, []expr.Expr{expr.NewCol(0, "ki")}, nil)
	got := map[string]int{}
	for _, b := range runWorkers(hj, 3) {
		for i := 0; i < b.NumTuples(); i++ {
			got[fmt.Sprintf("%d/%s/%d", b.Get(i, 0).I, b.Get(i, 1).S, b.Get(i, 3).I)]++
		}
		b.Recycle()
	}
	hj.Close()
	if len(got) != len(want) {
		t.Fatalf("%d distinct build rows out, want %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("build row %s: out %d times, want %d", k, got[k], n)
		}
	}
}

// TestHashJoinAggLeavesDeregistrationToItsConsumer: a worker shrunk
// after the join handed it emitted rows returns Terminated still
// registered at the aggregation's barriers above it. The aggregation
// deregisters it once it has parked the worker's private table
// (Scan.Next's protocol). Had the join deregistered on its own, the
// aggregation's done barrier could pass, and its pool be drained, before
// that table was parked: a shrink late in the query lost the rows the
// worker held (seen once in 200 runs of a COUNT(*) over a join under
// -race).
func TestHashJoinAggLeavesDeregistrationToItsConsumer(t *testing.T) {
	specs, guard := joinAggSpecs()
	rng := rand.New(rand.NewSource(19))
	build := joinAggBuildBlocks(rng, 100)
	probe := oracleBlocks(rng, 2000, 100)
	c := newJoinAggCase(t, []expr.Expr{expr.NewCol(1, "bg")}, specs, guard)
	hj := NewHashJoinAgg(&blockSource{blocks: build}, &blockSource{blocks: probe}, joinAggBuildSchema,
		oracleSchema, []expr.Expr{expr.NewCol(0, "bk")}, []expr.Expr{expr.NewCol(0, "ki")}, c.aggs)
	ha := NewHashAgg(hj, hj.Schema(), c.keys, c.names, c.merges, HybridAgg)
	defer ha.Close()
	ctx := &Ctx{Term: &TermFlag{}}
	if st := hj.Open(ctx); st != OK {
		t.Fatal(st)
	}
	registered := func(b *Barrier) int {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.registered
	}
	ctx.RegisterBarrier(ha.done)         // as HashAgg.Open does before opening its child
	if _, st := hj.Next(ctx); st != OK { // the whole probe, then the first emitted block
		t.Fatalf("first call: %v", st)
	}
	ctx.Term.Request()
	if _, st := hj.Next(ctx); st != Terminated {
		t.Fatalf("shrunk worker's call: %v, want Terminated", st)
	}
	if n, m := registered(hj.probeDone), registered(ha.done); n != 1 || m != 1 {
		t.Fatalf("after the join's Terminated: registered at probeDone %d, at the aggregation's done %d; want 1 and 1", n, m)
	}
}
