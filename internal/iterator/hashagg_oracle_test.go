package iterator

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/block"
	"repro/internal/expr"
	"repro/internal/telemetry"
	"repro/internal/types"
)

// The differential test below holds HashAgg to an evaluator that shares
// nothing with it: rows are Eval'd one at a time into a map of aggCells
// (the operator's own accumulator until it went block-at-a-time, kept
// here as the reference). The operator's keys, hashes, group tables,
// accumulator columns, scatter, spill and emission are all on the other
// side of the comparison.

// aggCell accumulates one aggregate for one group.
type aggCell struct {
	sumF float64
	sumI int64
	cnt  int64
	min  types.Value
	max  types.Value
	init bool
}

func (c *aggCell) update(f AggFunc, v types.Value) {
	switch f {
	case Count:
		if !v.Null {
			c.cnt++
		}
	case Sum, Avg:
		if v.Null {
			return
		}
		c.cnt++
		if v.Kind == types.Int64 {
			c.sumI += v.I
		}
		c.sumF += v.AsFloat()
	case Min:
		if v.Null {
			return
		}
		if !c.init || v.Compare(c.min) < 0 {
			c.min = v
		}
	case Max:
		if v.Null {
			return
		}
		if !c.init || v.Compare(c.max) > 0 {
			c.max = v
		}
	}
	c.init = true
}

func (c *aggCell) result(f AggFunc, kind types.Kind) types.Value {
	switch f {
	case Count:
		return types.IntVal(c.cnt)
	case Sum:
		if !c.init || c.cnt == 0 {
			return types.NullVal(kind)
		}
		if kind == types.Int64 {
			return types.IntVal(c.sumI)
		}
		return types.FloatVal(c.sumF)
	case Avg:
		if c.cnt == 0 {
			return types.NullVal(types.Float64)
		}
		return types.FloatVal(c.sumF / float64(c.cnt))
	case Min:
		if !c.init {
			return types.NullVal(kind)
		}
		return c.min
	default:
		if !c.init {
			return types.NullVal(kind)
		}
		return c.max
	}
}

// oracleAgg aggregates blocks the naive way and returns the expected
// output rows (raw record bytes under outSch) as a multiset.
func oracleAgg(blocks []*block.Block, inSch, outSch *types.Schema, keys []expr.Expr, specs []AggSpec) map[string]int {
	type grp struct {
		keyVals []types.Value
		cells   []aggCell
	}
	groups := make(map[string]*grp)
	if len(keys) == 0 {
		groups[""] = &grp{cells: make([]aggCell, len(specs))}
	}
	for _, b := range blocks {
		for i := 0; i < b.NumTuples(); i++ {
			rec := b.Row(i)
			id := ""
			keyVals := make([]types.Value, len(keys))
			for c, k := range keys {
				v := k.Eval(rec, inSch)
				keyVals[c] = v
				id += fmt.Sprintf("%v/%d/%d/%g/%q;", v.Null, v.Kind, v.I, v.F, v.S)
			}
			g := groups[id]
			if g == nil {
				g = &grp{keyVals: keyVals, cells: make([]aggCell, len(specs))}
				groups[id] = g
			}
			for j, s := range specs {
				v := types.IntVal(1) // COUNT(*)
				if s.Arg != nil {
					v = s.Arg.Eval(rec, inSch)
				}
				g.cells[j].update(s.Func, v)
			}
		}
	}
	want := make(map[string]int)
	rec := make([]byte, outSch.Stride())
	for _, g := range groups {
		for c, v := range g.keyVals {
			types.PutValue(rec, outSch, c, v)
		}
		for j, s := range specs {
			col := len(keys) + j
			types.PutValue(rec, outSch, col, g.cells[j].result(s.Func, outSch.Cols[col].Kind))
		}
		want[string(rec)]++
	}
	return want
}

// blockSource is a stage beginner over prepared blocks: a thread-safe
// cursor that honours the shrink protocol (Terminated at the block
// boundary after a request) and tells the test which block it serves.
type blockSource struct {
	blocks  []*block.Block
	cur     atomic.Int64
	onServe func(i int)
}

func (s *blockSource) Open(*Ctx) Status { return OK }
func (s *blockSource) Close()           {}

func (s *blockSource) Next(ctx *Ctx) (*block.Block, Status) {
	if ctx.Term.Requested() {
		return nil, Terminated
	}
	i := int(s.cur.Add(1) - 1)
	if i >= len(s.blocks) {
		return nil, End
	}
	if s.onServe != nil {
		s.onServe(i)
	}
	return s.blocks[i], OK
}

// oracleSchema has a key and an argument column of every kind, plus z,
// the divisor that makes vf/z NULL where it is zero. Every float is a
// small multiple of 0.25, so sums are exact in any order and workers
// adding in different orders still agree to the bit.
var oracleSchema = types.NewSchema(
	types.Col("ki", types.Int64), types.Col("kf", types.Float64),
	types.Col("kd", types.Date), types.Char("ks", 6),
	types.Col("vi", types.Int64), types.Col("vf", types.Float64),
	types.Col("vd", types.Date), types.Char("vs", 4),
	types.Col("z", types.Int64),
)

// oracleBlocks draws rows over card distinct key tuples into blocks of
// random sizes: a block may be larger than every block before it. The
// blocks are shared: the oracle and every run of the operator read the
// same ones, so the operator's Recycle must leave them intact. No
// key is zero: a key expression that yields Int64 for one row and
// Float64 for another groups by value and kind, except that the two
// zeros encode to the same bytes.
func oracleBlocks(rng *rand.Rand, rows, card int) []*block.Block {
	sch := oracleSchema
	var out []*block.Block
	for rows > 0 {
		n := 1 + rng.Intn(700)
		if n > rows {
			n = rows
		}
		rows -= n
		b := block.New(sch, n*sch.Stride(), nil)
		for i := 0; i < n; i++ {
			k := rng.Intn(card)
			rec := b.AppendRowTo()
			types.PutValue(rec, sch, 0, types.IntVal(int64(k+1)))
			types.PutValue(rec, sch, 1, types.FloatVal(float64(k%97+1)/4))
			types.PutValue(rec, sch, 2, types.DateVal(9000+int64(k%400)))
			types.PutValue(rec, sch, 3, types.StrVal(fmt.Sprintf("s%d", k%53)))
			types.PutValue(rec, sch, 4, types.IntVal(int64(rng.Intn(21)-5)))
			types.PutValue(rec, sch, 5, types.FloatVal(float64(rng.Intn(400))))
			types.PutValue(rec, sch, 6, types.DateVal(10000+int64(rng.Intn(3000))))
			types.PutValue(rec, sch, 7, types.StrVal(fmt.Sprintf("%c%c", 'a'+rng.Intn(26), 'a'+rng.Intn(26))))
			types.PutValue(rec, sch, 8, types.IntVal(int64([]int{0, 1, 2, 4}[rng.Intn(4)])))
		}
		b.MarkShared()
		out = append(out, b)
	}
	return out
}

// oracleSpecs covers every function over every argument kind, fused
// arithmetic with NULLs (vf/z), and arguments outside the fused shapes:
// a CASE whose arms differ in kind (the boxed path must follow each
// row's runtime kind) and a CASE without ELSE (NULLs for COUNT).
func oracleSpecs() []AggSpec {
	ki, kf := expr.NewCol(0, "ki"), expr.NewCol(1, "kf")
	vi, vf := expr.NewCol(4, "vi"), expr.NewCol(5, "vf")
	vd, vs, z := expr.NewCol(6, "vd"), expr.NewCol(7, "vs"), expr.NewCol(8, "z")
	big := expr.NewCmp(expr.GT, vi, expr.NewConst(types.IntVal(5)))
	ratio := expr.NewArith(expr.Div, vf, z)
	mixed := expr.NewCase([]expr.When{{Cond: big, Then: vi}}, vf)
	sparse := expr.NewCase([]expr.When{{Cond: big, Then: vf}}, nil)
	specs := []AggSpec{
		{Func: Count},
		{Func: Sum, Arg: vi}, {Func: Sum, Arg: vf}, {Func: Sum, Arg: vd},
		{Func: Count, Arg: vi}, {Func: Count, Arg: vs},
		{Func: Avg, Arg: vi}, {Func: Avg, Arg: vf}, {Func: Avg, Arg: vd},
		{Func: Min, Arg: vi}, {Func: Max, Arg: vf}, {Func: Min, Arg: vd},
		{Func: Max, Arg: vs}, {Func: Min, Arg: vs},
		{Func: Sum, Arg: ratio}, {Func: Count, Arg: ratio}, {Func: Avg, Arg: ratio}, {Func: Max, Arg: ratio},
		{Func: Sum, Arg: expr.NewArith(expr.Mul, vi, expr.NewArith(expr.Add, ki, expr.NewConst(types.IntVal(2))))},
		{Func: Sum, Arg: expr.NewArith(expr.Add, vf, kf)},
		{Func: Sum, Arg: mixed}, {Func: Avg, Arg: mixed}, {Func: Min, Arg: mixed},
		{Func: Count, Arg: sparse}, {Func: Sum, Arg: sparse},
		{Func: Sum, Arg: vs},
	}
	for j := range specs {
		specs[j].Name = fmt.Sprintf("a%d", j)
	}
	return specs
}

// runElastic drives it with `workers` concurrent workers the way the
// elastic layer would, collecting the output blocks. With resize set,
// worker 0 is asked to terminate when the source serves the block a
// third of the way in (shrink: it parks its private table and leaves at
// the block boundary), and a fresh worker starts on the same core two
// thirds in (expand: it finds the parked table). A lone worker is
// replaced at the shrink point, or nobody would be left to expand.
func runElastic(it Iterator, src *blockSource, workers int, resize bool, tr *block.Tracker) []*block.Block {
	var mu sync.Mutex
	var out []*block.Block
	var wg sync.WaitGroup
	start := func(id, core int, term *TermFlag) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := &Ctx{WorkerID: id, Core: core, Socket: core % 2, Term: term, Tracker: tr}
			if st := it.Open(ctx); st != OK {
				return
			}
			for {
				b, st := it.Next(ctx)
				if st != OK {
					return
				}
				mu.Lock()
				out = append(out, b)
				mu.Unlock()
			}
		}()
	}
	terms := make([]*TermFlag, workers)
	for w := range terms {
		terms[w] = new(TermFlag)
	}
	if resize {
		shrinkAt, expandAt := len(src.blocks)/3, 2*len(src.blocks)/3
		if workers == 1 {
			expandAt = shrinkAt
		}
		// Called on a worker's goroutine, which is still counted in wg.
		src.onServe = func(i int) {
			if i == shrinkAt {
				terms[0].Request()
			}
			if i == expandAt {
				start(workers, 0, new(TermFlag))
			}
		}
	}
	for w := 0; w < workers; w++ {
		start(w, w, terms[w])
	}
	wg.Wait()
	return out
}

// TestHashAggAgainstOracle runs seeded random inputs through every
// algorithm, one and four workers, with and without a shrink and an expand mid-stream, and compares the output rows byte
// for byte with the oracle's. The shapes: few groups, composite keys of
// every kind, a computed key and one outside the fused shapes, more
// groups than a hybrid private table holds, no keys, and no rows.
func TestHashAggAgainstOracle(t *testing.T) {
	ki, kf := expr.NewCol(0, "ki"), expr.NewCol(1, "kf")
	kd, ks := expr.NewCol(2, "kd"), expr.NewCol(3, "ks")
	vi := expr.NewCol(4, "vi")
	shapes := []struct {
		name       string
		keys       []expr.Expr
		rows, card int
	}{
		{"few-groups", []expr.Expr{ks}, 3000, 40},
		{"every-kind", []expr.Expr{ki, kf, kd, ks}, 3000, 900},
		{"computed", []expr.Expr{expr.NewArith(expr.Add, ki, vi), expr.NewExtract(expr.Year, kd)}, 3000, 50},
		{"unfused-key", []expr.Expr{expr.NewCase([]expr.When{{
			Cond: expr.NewCmp(expr.GT, vi, expr.NewConst(types.IntVal(5))), Then: ki}}, kf)}, 3000, 60},
		{"overflow", []expr.Expr{ki}, 3 * maxPrivateGroups, maxPrivateGroups + 1500},
		{"scalar", nil, 3000, 10},
		{"scalar-empty", nil, 0, 1},
		{"keyed-empty", []expr.Expr{ki}, 0, 1},
	}
	specs := oracleSpecs()
	for si, sh := range shapes {
		blocks := oracleBlocks(rand.New(rand.NewSource(int64(23+si))), sh.rows, sh.card)
		names := make([]string, len(sh.keys))
		for i := range names {
			names[i] = fmt.Sprintf("k%d", i)
		}
		outSch := NewHashAgg(nil, oracleSchema, sh.keys, names, specs, SharedAgg).Schema()
		want := oracleAgg(blocks, oracleSchema, outSch, sh.keys, specs)
		if sh.rows == 0 && len(want) != map[bool]int{true: 1, false: 0}[len(sh.keys) == 0] {
			t.Fatalf("%s: oracle has %d rows on empty input", sh.name, len(want))
		}
		for _, algo := range []AggAlgorithm{SharedAgg, IndependentAgg, HybridAgg} {
			for _, workers := range []int{1, 4} {
				for _, resize := range []bool{false, true} {
					name := fmt.Sprintf("%s/algo%d/w%d/resize=%v", sh.name, algo, workers, resize)
					src := &blockSource{blocks: blocks}
					ha := NewHashAgg(src, oracleSchema, sh.keys, names, specs, algo)
					tr := block.NewTracker()
					out := runElastic(ha, src, workers, resize, tr)
					checkAggOutput(t, name, out, want, workers+1)
					ha.Close()
					if cur := tr.Current(); cur != 0 {
						t.Errorf("%s: %d tracked bytes after the output was released", name, cur)
					}
				}
			}
		}
	}
}

// checkAggOutput compares output blocks with the oracle's rows,
// recycles them as their consumer, and holds emission to full blocks: no more blocks than
// the output's rows fill, plus one partly filled per worker.
func checkAggOutput(t *testing.T, name string, out []*block.Block, want map[string]int, workers int) {
	t.Helper()
	got := make(map[string]int)
	rows := 0
	for _, b := range out {
		for i := 0; i < b.NumTuples(); i++ {
			got[string(b.Row(i))]++
		}
		rows += b.NumTuples()
	}
	if len(out) > 0 {
		full := block.DefaultSize / out[0].Schema().Stride()
		if max := rows/full + workers; len(out) > max {
			t.Errorf("%s: %d output blocks for %d rows (%d to a block) and %d workers, want at most %d",
				name, len(out), rows, full, workers, max)
		}
	}
	for _, b := range out {
		b.Recycle()
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d distinct output rows, oracle has %d", name, len(got), len(want))
	}
	bad := 0
	for row, n := range want {
		if got[row] != n && bad < 3 {
			bad++
			t.Errorf("%s: row %x: got %d, oracle has %d", name, row, got[row], n)
		}
	}
}

// TestHashAggSpillAgainstOracle gives the aggregation a budget that
// holds a fraction of its groups, so shards flip into spill mode, rows
// are deferred to disk and reabsorbed through the block kernels at
// emission — under every algorithm that can meet a budget mid-stream,
// with workers coming and going. Results must still equal the oracle's,
// and after Close the budget account and the block tracker are back at
// zero.
func TestHashAggSpillAgainstOracle(t *testing.T) {
	ki, ks := expr.NewCol(0, "ki"), expr.NewCol(3, "ks")
	keys, names := []expr.Expr{ki, ks}, []string{"ki", "ks"}
	specs := oracleSpecs()
	blocks := oracleBlocks(rand.New(rand.NewSource(5)), 16000, 5000)
	outSch := NewHashAgg(nil, oracleSchema, keys, names, specs, SharedAgg).Schema()
	want := oracleAgg(blocks, oracleSchema, outSch, keys, specs)
	for _, algo := range []AggAlgorithm{SharedAgg, IndependentAgg, HybridAgg} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("algo%d/w%d", algo, workers)
			src := &blockSource{blocks: blocks}
			ha := NewHashAgg(src, oracleSchema, keys, names, specs, algo)
			acct := block.NewBudget("node", 2<<20).Sub("agg")
			ha.Mem = &MemConfig{Acct: acct, SpillDir: t.TempDir(), Op: "hashagg",
				Scope: telemetry.NewScope("test")}
			tr := block.NewTracker()
			out := runElastic(ha, src, workers, true, tr)
			if err := ha.SpillError(); err != nil {
				t.Fatalf("%s: spill error: %v", name, err)
			}
			if ha.Mem.Scope.Counter(telemetry.CtrSpillEvents).Load() == 0 {
				t.Errorf("%s: nothing spilled; the budget is not binding", name)
			}
			checkAggOutput(t, name, out, want, workers+1)
			ha.Close()
			if cur := acct.Current(); cur != 0 {
				t.Errorf("%s: budget account holds %d bytes after Close", name, cur)
			}
			if cur := tr.Current(); cur != 0 {
				t.Errorf("%s: %d tracked bytes after Close", name, cur)
			}
		}
	}
}
