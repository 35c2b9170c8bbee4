package iterator

import (
	"fmt"
	"math"
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
			rec := b.ReadRow(i, nil)
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
// adding in different orders still agree to the bit. The last four are
// keys for the word-key shapes: CHAR columns of widths 3, 5 and 6 (so
// ca+cb fill a word exactly and ca+cc overflow it) whose values may
// differ only after a NUL, and kn, negative numbers and MinInt64.
var oracleSchema = types.NewSchema(
	types.Col("ki", types.Int64), types.Col("kf", types.Float64),
	types.Col("kd", types.Date), types.Char("ks", 6),
	types.Col("vi", types.Int64), types.Col("vf", types.Float64),
	types.Col("vd", types.Date), types.Char("vs", 4),
	types.Col("z", types.Int64),
	types.Char("ca", 3), types.Char("cb", 5), types.Char("cc", 6),
	types.Col("kn", types.Int64),
)

// The word-key columns' values, picked by the row's key number k. A
// value's bytes after its first NUL are not part of it: "A\x00x" and
// "A\x00y" are "A", and "\x00Z" is "". ("", "A") and ("A", "") are
// both among the (ca, cb) pairs.
var (
	caVals = []string{"", "A", "A\x00x", "A\x00y", "B", "ab\x00"}
	cbVals = []string{"A", "", "\x00Z", "xyzw", "A\x00\x00q", "Bcdef"}
	ccVals = []string{"", "A", "ab\x00cd", "abcdef", "ab"}
)

// knVal is kn's value for key number k: negative, and MinInt64 (plus a
// little) for every seventh.
func knVal(k int) int64 {
	if k%7 == 0 {
		return math.MinInt64 + int64(k%3)
	}
	return -int64(k) * 1_000_003
}

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
			rec := make([]byte, b.Schema().Stride())
			types.PutValue(rec, sch, 0, types.IntVal(int64(k+1)))
			types.PutValue(rec, sch, 1, types.FloatVal(float64(k%97+1)/4))
			types.PutValue(rec, sch, 2, types.DateVal(9000+int64(k%400)))
			types.PutValue(rec, sch, 3, types.StrVal(fmt.Sprintf("s%d", k%53)))
			types.PutValue(rec, sch, 4, types.IntVal(int64(rng.Intn(21)-5)))
			types.PutValue(rec, sch, 5, types.FloatVal(float64(rng.Intn(400))))
			types.PutValue(rec, sch, 6, types.DateVal(10000+int64(rng.Intn(3000))))
			types.PutValue(rec, sch, 7, types.StrVal(fmt.Sprintf("%c%c", 'a'+rng.Intn(26), 'a'+rng.Intn(26))))
			types.PutValue(rec, sch, 8, types.IntVal(int64([]int{0, 1, 2, 4}[rng.Intn(4)])))
			types.PutValue(rec, sch, 9, types.StrVal(caVals[k%len(caVals)]))
			types.PutValue(rec, sch, 10, types.StrVal(cbVals[k/len(caVals)%len(cbVals)]))
			types.PutValue(rec, sch, 11, types.StrVal(ccVals[k/len(caVals)%len(ccVals)]))
			types.PutValue(rec, sch, 12, types.IntVal(knVal(k)))
			b.AppendRows(rec)
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
// the block boundary), and a fresh worker starts two thirds in (expand:
// it takes the parked table). A lone worker is
// replaced at the shrink point, or nobody would be left to expand.
func runElastic(it Iterator, src *blockSource, workers int, resize bool, tr *block.Tracker) []*block.Block {
	var mu sync.Mutex
	var out []*block.Block
	var wg sync.WaitGroup
	start := func(id int, term *TermFlag) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := &Ctx{WorkerID: id, Term: term, Tracker: tr}
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
				start(workers, new(TermFlag))
			}
		}
	}
	for w := 0; w < workers; w++ {
		start(w, terms[w])
	}
	wg.Wait()
	return out
}

// TestHashAggAgainstOracle runs seeded random inputs through every
// algorithm, one and four workers, with and without a shrink and an expand mid-stream, and compares the output rows byte
// for byte with the oracle's. The shapes: few groups, composite keys of
// every kind, a computed key and one outside the fused shapes, more
// groups than a hybrid private table holds, no keys, and no rows; and
// the keys that pack into one word beside the ones that just miss: two
// CHAR columns 8 bytes wide against 9, values that differ only after a
// NUL, ("", "A") against ("A", ""), negative numbers and MinInt64, and
// hybrid overflow under either key form.
func TestHashAggAgainstOracle(t *testing.T) {
	ki, kf := expr.NewCol(0, "ki"), expr.NewCol(1, "kf")
	kd, ks := expr.NewCol(2, "kd"), expr.NewCol(3, "ks")
	vi := expr.NewCol(4, "vi")
	ca, cb, cc, kn := expr.NewCol(9, "ca"), expr.NewCol(10, "cb"), expr.NewCol(11, "cc"), expr.NewCol(12, "kn")
	shapes := []struct {
		name       string
		keys       []expr.Expr
		rows, card int
		word       bool // the key packs into one word
	}{
		{"few-groups", []expr.Expr{ks}, 3000, 40, true},
		{"every-kind", []expr.Expr{ki, kf, kd, ks}, 3000, 900, false},
		{"computed", []expr.Expr{expr.NewArith(expr.Add, ki, vi), expr.NewExtract(expr.Year, kd)}, 3000, 50, false},
		{"unfused-key", []expr.Expr{expr.NewCase([]expr.When{{
			Cond: expr.NewCmp(expr.GT, vi, expr.NewConst(types.IntVal(5))), Then: ki}}, kf)}, 3000, 60, false},
		{"overflow", []expr.Expr{ki}, 3 * MaxPrivateGroups, MaxPrivateGroups + 1500, true},
		{"overflow-byte-key", []expr.Expr{ki, kd}, 3 * MaxPrivateGroups, MaxPrivateGroups + 1500, false},
		{"scalar", nil, 3000, 10, false},
		{"scalar-empty", nil, 0, 1, false},
		{"keyed-empty", []expr.Expr{ki}, 0, 1, true},
		{"char-width-8", []expr.Expr{ca, cb}, 3000, 400, true},
		{"char-width-8-swapped", []expr.Expr{cb, ca}, 3000, 400, true},
		{"char-width-9", []expr.Expr{ca, cc}, 3000, 400, false},
		{"negative-and-min", []expr.Expr{kn}, 3000, 500, true},
	}
	specs := oracleSpecs()
	for si, sh := range shapes {
		blocks := oracleBlocks(rand.New(rand.NewSource(int64(23+si))), sh.rows, sh.card)
		names := make([]string, len(sh.keys))
		for i := range names {
			names[i] = fmt.Sprintf("k%d", i)
		}
		probe := NewHashAgg(nil, oracleSchema, sh.keys, names, specs, SharedAgg)
		if probe.wordKey != sh.word {
			t.Errorf("%s: word key %v, want %v", sh.name, probe.wordKey, sh.word)
		}
		outSch := probe.Schema()
		want := oracleAgg(blocks, oracleSchema, outSch, sh.keys, specs)
		if sh.rows == 0 && len(want) != map[bool]int{true: 1, false: 0}[len(sh.keys) == 0] {
			t.Fatalf("%s: oracle has %d rows on empty input", sh.name, len(want))
		}
		for _, algo := range []AggAlgorithm{SharedAgg, IndependentAgg, HybridAgg} {
			for _, workers := range []int{1, 4} {
				for _, resize := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/w%d/resize=%v", sh.name, algo, workers, resize)
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
			got[string(b.ReadRow(i, nil))]++
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
// zero. The keys are encoded bytes once and one word once.
func TestHashAggSpillAgainstOracle(t *testing.T) {
	ki, ks, kn := expr.NewCol(0, "ki"), expr.NewCol(3, "ks"), expr.NewCol(12, "kn")
	for _, kc := range []struct {
		name  string
		keys  []expr.Expr
		names []string
	}{
		{"byte-key", []expr.Expr{ki, ks}, []string{"ki", "ks"}},
		{"word-key", []expr.Expr{kn}, []string{"kn"}},
	} {
		testHashAggSpill(t, kc.name, kc.keys, kc.names)
	}
}

func testHashAggSpill(t *testing.T, keyName string, keys []expr.Expr, names []string) {
	specs := oracleSpecs()
	blocks := oracleBlocks(rand.New(rand.NewSource(5)), 16000, 5000)
	outSch := NewHashAgg(nil, oracleSchema, keys, names, specs, SharedAgg).Schema()
	want := oracleAgg(blocks, oracleSchema, outSch, keys, specs)
	for _, algo := range []AggAlgorithm{SharedAgg, IndependentAgg, HybridAgg} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("%s/%s/w%d", keyName, algo, workers)
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

// TestHashAggConcurrentFlushesByShard: four private tables holding the
// same groups, spread over every shard, are flushed into the global
// table at once. Each flush sorts its groups by shard and merges a
// shard's under one acquisition of its lock, so the flushes interleave
// shard by shard; the result must still equal the oracle's over four
// copies of the input, and the global table must count each group once.
// Under either key form: a word key's groups carry no key bytes.
func TestHashAggConcurrentFlushesByShard(t *testing.T) {
	const flushes = 4
	ki, kd, kn := expr.NewCol(0, "ki"), expr.NewCol(2, "kd"), expr.NewCol(12, "kn")
	for _, keys := range [][]expr.Expr{{kn}, {ki, kd}} {
		names := make([]string, len(keys))
		for i := range names {
			names[i] = fmt.Sprintf("k%d", i)
		}
		specs := oracleSpecs()
		blocks := oracleBlocks(rand.New(rand.NewSource(9)), 6000, 3000)
		ha := NewHashAgg(nil, oracleSchema, keys, names, specs, HybridAgg)
		var all []*block.Block
		privs := make([]*aggTable, flushes)
		for f := range privs {
			privs[f] = new(aggTable)
			w := ha.newWorker()
			for _, b := range blocks {
				if over := ha.absorbPrivate(w, privs[f], b, w.encode(b, nil)); len(over) > 0 {
					t.Fatalf("%d rows did not fit the private table", len(over))
				}
			}
			all = append(all, blocks...)
		}
		var wg sync.WaitGroup
		for _, priv := range privs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ha.flushPrivate(priv)
			}()
		}
		wg.Wait()
		want := oracleAgg(all, oracleSchema, ha.Schema(), keys, specs)
		if got := ha.Groups(); got != int64(len(want)) {
			t.Errorf("word key %v: global table counts %d groups, oracle has %d", ha.wordKey, got, len(want))
		}
		var out []*block.Block
		ctx := &Ctx{Term: new(TermFlag)}
		for {
			b, st := ha.Next(ctx)
			if st != OK {
				break
			}
			out = append(out, b)
		}
		checkAggOutput(t, fmt.Sprintf("word key %v", ha.wordKey), out, want, 1)
	}
}
