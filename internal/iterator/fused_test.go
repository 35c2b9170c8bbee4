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

// The fused scan → filter → aggregation reads the filter's selection
// over each input block in place, and binds its keys and arguments
// through the pruning projection that no longer runs. The test below
// holds it to the chain it replaces — filter, projection, aggregation,
// each block gathered and copied — and both to the oracle, over rows
// wider than what the aggregation reads.

// wideSchema puts a padding column and the filter's column in front of
// oracleSchema's, so the projection that narrows a wide row to the
// oracle's columns moves every one of them.
var wideSchema = func() *types.Schema {
	cols := []types.Column{types.Char("pad", 40), types.Col("keep", types.Int64)}
	return types.NewSchema(append(cols, oracleSchema.Cols...)...)
}()

// wideLead is the number of columns in front of oracleSchema's.
const wideLead = 2

// wideBlocks copies each oracle row into a wide row whose keep column
// is uniform in [0, 1000): the predicate keep < t keeps t/10 percent of
// the rows, block by block around that rate.
func wideBlocks(rng *rand.Rand, narrow []*block.Block) []*block.Block {
	off, st := wideSchema.Offset(wideLead), wideSchema.Stride()
	var out []*block.Block
	for _, nb := range narrow {
		b := block.New(wideSchema, nb.NumTuples()*st, nil)
		for i := 0; i < nb.NumTuples(); i++ {
			rec := make([]byte, b.Schema().Stride())
			types.PutValue(rec, wideSchema, 0, types.StrVal(fmt.Sprintf("padding %d", i)))
			types.PutValue(rec, wideSchema, 1, types.IntVal(int64(rng.Intn(1000))))
			copy(rec[off:], nb.ReadRow(i, nil))
			b.AppendRows(rec)
		}
		b.MarkShared()
		out = append(out, b)
	}
	return out
}

// narrowPassing is the oracle's input: the oracle rows of the wide rows
// whose keep column is below t.
func narrowPassing(wide []*block.Block, t int64) []*block.Block {
	keepOff, off := wideSchema.Offset(1), wideSchema.Offset(wideLead)
	var out []*block.Block
	for _, b := range wide {
		nb := block.New(oracleSchema, b.NumTuples()*oracleSchema.Stride(), nil)
		for i := 0; i < b.NumTuples(); i++ {
			if rec := b.ReadRow(i, nil); types.GetInt(rec, keepOff) < t {
				nb.AppendRows(rec[off:])
			}
		}
		out = append(out, nb)
	}
	return out
}

// narrowing is the pruning projection: oracleSchema's columns of a wide
// row, in order.
func narrowing() []expr.Expr {
	cols := make([]expr.Expr, oracleSchema.NumCols())
	for i, c := range oracleSchema.Cols {
		cols[i] = expr.NewCol(wideLead+i, c.Name)
	}
	return cols
}

// throughNarrowing binds keys and specs written over oracleSchema to
// the wide rows, as the engine binds an aggregation through the
// projection it folds.
func throughNarrowing(keys []expr.Expr, specs []AggSpec) ([]expr.Expr, []AggSpec) {
	proj := narrowing()
	wk := make([]expr.Expr, len(keys))
	for i, k := range keys {
		wk[i] = expr.Remap(k, proj)
	}
	ws := append([]AggSpec(nil), specs...)
	for i := range ws {
		ws[i].Arg = expr.Remap(ws[i].Arg, proj)
	}
	return wk, ws
}

// TestFusedAggMatchesUnfused runs the aggregation over a filter over
// wide rows two ways — fused (the aggregation reads the filter's
// selection and the wide rows) and unfused (filter, projection,
// aggregation) — and compares both with the oracle, byte for byte: at
// keep rates of 0, about 2 %, just below and just above one half
// (blocks on both sides of the compaction threshold), 98 % and 100 %;
// keyless, byte-key and word-key aggregations; every algorithm; one
// worker and four, with a shrink and an expand mid-stream; a
// BlockPerBlock filter, which does not lend; the filter behind the
// instrumentation wrapper, whose rows must be the passing rows; and a
// budget that sends shards into spill mode, where the deferred rows are
// the wide ones.
func TestFusedAggMatchesUnfused(t *testing.T) {
	ks, ca, cb, ki := expr.NewCol(3, "ks"), expr.NewCol(9, "ca"), expr.NewCol(10, "cb"), expr.NewCol(0, "ki")
	specs := oracleSpecs()
	shapes := []struct {
		name string
		keys []expr.Expr
	}{
		{"keyless", nil},
		{"byte-key", []expr.Expr{ks, ki}},
		{"word-key", []expr.Expr{ca, cb}},
	}
	narrow := oracleBlocks(rand.New(rand.NewSource(31)), 4000, 300)
	wide := wideBlocks(rand.New(rand.NewSource(32)), narrow)
	keepCol := expr.NewCol(1, "keep")
	for _, sh := range shapes {
		names := make([]string, len(sh.keys))
		for i := range names {
			names[i] = fmt.Sprintf("k%d", i)
		}
		wideKeys, wideSpecs := throughNarrowing(sh.keys, specs)
		outSch := NewHashAgg(nil, oracleSchema, sh.keys, names, specs, SharedAgg).Schema()
		for _, keep := range []int64{0, 20, 490, 510, 980, 1000} {
			want := oracleAgg(narrowPassing(wide, keep), oracleSchema, outSch, sh.keys, specs)
			pred := expr.NewCmp(expr.LT, keepCol, expr.NewConst(types.IntVal(keep)))
			for _, algo := range []AggAlgorithm{SharedAgg, IndependentAgg, HybridAgg} {
				for _, workers := range []int{1, 4} {
					name := fmt.Sprintf("%s/keep=%d/%s/w%d", sh.name, keep, algo, workers)
					// Fused: the aggregation reads the wide rows in place.
					src := &blockSource{blocks: wide}
					f := NewFilter(src, wideSchema, pred)
					ha := NewHashAgg(f, wideSchema, wideKeys, names, wideSpecs, algo)
					if lenderOf(ha.child) == nil {
						t.Fatalf("%s: the filter does not lend", name)
					}
					tr := block.NewTracker()
					checkAggOutput(t, name+"/fused", runElastic(ha, src, workers, true, tr), want, workers+1)
					ha.Close()
					if cur := tr.Current(); cur != 0 {
						t.Errorf("%s/fused: %d tracked bytes after the output was released", name, cur)
					}
					// Unfused: every survivor gathered, then narrowed.
					src = &blockSource{blocks: wide}
					p := NewProject(NewFilter(src, wideSchema, pred), wideSchema, oracleSchema, narrowing())
					ha = NewHashAgg(p, oracleSchema, sh.keys, names, specs, algo)
					checkAggOutput(t, name+"/unfused", runElastic(ha, src, workers, true, nil), want, workers+1)
					ha.Close()
				}
			}
			// A BlockPerBlock filter keeps to Next, one block out per block in.
			src := &blockSource{blocks: wide}
			f := NewFilter(src, wideSchema, pred)
			f.BlockPerBlock = true
			ha := NewHashAgg(f, wideSchema, wideKeys, names, wideSpecs, HybridAgg)
			if lenderOf(ha.child) != nil {
				t.Fatalf("%s/keep=%d: a BlockPerBlock filter lends", sh.name, keep)
			}
			checkAggOutput(t, fmt.Sprintf("%s/keep=%d/block-per-block", sh.name, keep),
				runElastic(ha, src, 2, true, nil), want, 3)
			ha.Close()
			// Through the instrumentation wrapper, which counts the rows lent.
			src = &blockSource{blocks: wide}
			sc := telemetry.NewScope("test")
			in := Instrument(NewFilter(src, wideSchema, pred), sc, 7, "filter", "S0", 0)
			ha = NewHashAgg(in, wideSchema, wideKeys, names, wideSpecs, HybridAgg)
			if lenderOf(ha.child) == nil {
				t.Fatalf("%s/keep=%d: the instrumented filter does not lend", sh.name, keep)
			}
			checkAggOutput(t, fmt.Sprintf("%s/keep=%d/instrumented", sh.name, keep),
				runElastic(ha, src, 2, false, nil), want, 3)
			ha.Close()
			var passing int64
			for _, b := range narrowPassing(wide, keep) {
				passing += int64(b.NumTuples())
			}
			if got := sc.Counter(telemetry.OpCtr(7, telemetry.OpRows)).Load(); got != passing {
				t.Errorf("%s/keep=%d: the instrumented filter counted %d rows, %d pass", sh.name, keep, got, passing)
			}
		}
	}
}

// TestFusedAggSpillsWideRows gives the fused aggregation a budget that
// holds a fraction of its groups: shards spill the wide input rows and
// reabsorb them at emission, under every algorithm, with workers coming
// and going, and the result must still be the oracle's. A keyless
// aggregation under a budget that refuses its private tables their one
// group sends every row to the global table's.
func TestFusedAggSpillsWideRows(t *testing.T) {
	t.Run("keyless-refused", func(t *testing.T) {
		specs := oracleSpecs()
		narrow := oracleBlocks(rand.New(rand.NewSource(7)), 3000, 50)
		wide := wideBlocks(rand.New(rand.NewSource(8)), narrow)
		pred := expr.NewCmp(expr.LT, expr.NewCol(1, "keep"), expr.NewConst(types.IntVal(700)))
		_, wideSpecs := throughNarrowing(nil, specs)
		outSch := NewHashAgg(nil, oracleSchema, nil, nil, specs, SharedAgg).Schema()
		want := oracleAgg(narrowPassing(wide, 700), oracleSchema, outSch, nil, specs)
		for _, algo := range []AggAlgorithm{IndependentAgg, HybridAgg} {
			src := &blockSource{blocks: wide}
			ha := NewHashAgg(NewFilter(src, wideSchema, pred), wideSchema, nil, nil, wideSpecs, algo)
			acct := block.NewBudget("node", 1).Sub("agg")
			ha.Mem = &MemConfig{Acct: acct, SpillDir: t.TempDir(), Op: "hashagg", Scope: telemetry.NewScope("test")}
			checkAggOutput(t, algo.String(), runElastic(ha, src, 4, true, nil), want, 5)
			ha.Close()
		}
	})
	keys := []expr.Expr{expr.NewCol(0, "ki"), expr.NewCol(3, "ks")}
	names := []string{"ki", "ks"}
	specs := oracleSpecs()
	narrow := oracleBlocks(rand.New(rand.NewSource(5)), 16000, 5000)
	wide := wideBlocks(rand.New(rand.NewSource(6)), narrow)
	const keep = 700
	pred := expr.NewCmp(expr.LT, expr.NewCol(1, "keep"), expr.NewConst(types.IntVal(keep)))
	wideKeys, wideSpecs := throughNarrowing(keys, specs)
	outSch := NewHashAgg(nil, oracleSchema, keys, names, specs, SharedAgg).Schema()
	want := oracleAgg(narrowPassing(wide, keep), oracleSchema, outSch, keys, specs)
	for _, algo := range []AggAlgorithm{SharedAgg, IndependentAgg, HybridAgg} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("%s/w%d", algo, workers)
			src := &blockSource{blocks: wide}
			ha := NewHashAgg(NewFilter(src, wideSchema, pred), wideSchema, wideKeys, names, wideSpecs, algo)
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

// TestDuplicateSpecsShareOneAccumulator: an aggregate asked for twice —
// as a two-phase AVG's SUM beside the query's own SUM of the same
// argument — is one accumulator, answered into both columns, and every
// column still equals the oracle's.
func TestDuplicateSpecsShareOneAccumulator(t *testing.T) {
	vi, vf, vs := expr.NewCol(4, "vi"), expr.NewCol(5, "vf"), expr.NewCol(7, "vs")
	disc := func() expr.Expr { // a fresh tree each time: equal, not identical
		return expr.NewArith(expr.Mul, vf, expr.NewArith(expr.Sub, expr.NewConst(types.FloatVal(1)), expr.NewCol(1, "kf")))
	}
	specs := []AggSpec{
		{Func: Sum, Arg: vf}, {Func: Sum, Arg: vf},
		{Func: Sum, Arg: disc()}, {Func: Sum, Arg: disc()},
		{Func: Avg, Arg: vi}, {Func: Avg, Arg: vi},
		{Func: Min, Arg: vs}, {Func: Max, Arg: vs}, {Func: Min, Arg: vs},
		{Func: Count}, {Func: Count, Arg: vi}, {Func: Count, Arg: vs},
		{Func: Sum, Arg: vi},
	}
	for j := range specs {
		specs[j].Name = fmt.Sprintf("a%d", j)
	}
	// Answered by: sum(vf), sum(disc), avg(vi), min(vs), max(vs), the
	// row count (COUNT of a column is COUNT(*)), sum(vi).
	const distinct = 7
	keys := []expr.Expr{expr.NewCol(3, "ks")}
	blocks := oracleBlocks(rand.New(rand.NewSource(41)), 3000, 40)
	for _, algo := range []AggAlgorithm{SharedAgg, HybridAgg} {
		src := &blockSource{blocks: blocks}
		ha := NewHashAgg(src, oracleSchema, keys, []string{"ks"}, specs, algo)
		if len(ha.plans) != distinct {
			t.Fatalf("%s: %d accumulators for %d specs, want %d", algo, len(ha.plans), len(specs), distinct)
		}
		want := oracleAgg(blocks, oracleSchema, ha.Schema(), keys, specs)
		out := runElastic(ha, src, 2, false, nil)
		sch := ha.Schema()
		for _, b := range out {
			for i := 0; i < b.NumTuples(); i++ {
				rec := b.ReadRow(i, nil)
				for _, pair := range [][2]int{{1, 2}, {3, 4}, {5, 6}, {7, 9}, {10, 11}, {10, 12}} {
					x, y := types.GetValue(rec, sch, pair[0]), types.GetValue(rec, sch, pair[1])
					if x.Compare(y) != 0 {
						t.Errorf("%s: columns %d and %d differ: %v, %v", algo, pair[0], pair[1], x, y)
					}
				}
			}
		}
		checkAggOutput(t, algo.String(), out, want, 3)
		ha.Close()
	}
}

// TestLentBlocksCarryTheVisitRate: a block the filter lends carries the
// visit rate Next would have stamped on its gathered copy — the input's
// times the filter's running selectivity (Section 4.3) — and so does a
// block gathered from sparse ones.
func TestLentBlocksCarryTheVisitRate(t *testing.T) {
	narrow := oracleBlocks(rand.New(rand.NewSource(51)), 3000, 20)
	lent, gathered := 0, 0
	for _, keep := range []int64{700, 100} {
		inputs := map[*block.Block]bool{}
		var blocks []*block.Block
		for _, b := range wideBlocks(rand.New(rand.NewSource(52)), narrow) {
			c := *b // a stamped view, as Scan hands out
			c.VisitRate = 0.5
			blocks = append(blocks, &c)
			inputs[&c] = true
		}
		f := NewFilter(&blockSource{blocks: blocks}, wideSchema,
			expr.NewCmp(expr.LT, expr.NewCol(1, "keep"), expr.NewConst(types.IntVal(keep))))
		ctx := &Ctx{Term: new(TermFlag)}
		for buf := new([]int32); ; {
			b, _, st := f.lend(ctx, buf)
			if st != OK {
				break
			}
			if inputs[b] {
				lent++
			} else {
				gathered++
			}
			if want := 0.5 * f.Selectivity(); b.VisitRate != want {
				t.Errorf("keep=%d: visit rate %v, want %v", keep, b.VisitRate, want)
			}
			b.Recycle()
		}
	}
	if lent == 0 || gathered == 0 {
		t.Errorf("%d blocks lent and %d gathered: both paths must run", lent, gathered)
	}
}
