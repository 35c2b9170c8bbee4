package iterator

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/expr"
	"repro/internal/types"
)

func TestHashJoinInnerEqui(t *testing.T) {
	// build: (k, bv) for k in 0..99; probe: (k%150, pv) for 1000 rows.
	buildSch := types.NewSchema(types.Col("bk", types.Int64), types.Col("bv", types.Int64))
	probeSch := types.NewSchema(types.Col("pk", types.Int64), types.Col("pv", types.Int64))
	bp := buildPartition(buildSch, 100, 512, func(i int, rec []byte) {
		types.PutValue(rec, buildSch, 0, types.IntVal(int64(i)))
		types.PutValue(rec, buildSch, 1, types.IntVal(int64(i*10)))
	})
	pp := buildPartition(probeSch, 1000, 512, func(i int, rec []byte) {
		types.PutValue(rec, probeSch, 0, types.IntVal(int64(i%150)))
		types.PutValue(rec, probeSch, 1, types.IntVal(int64(i)))
	})
	hj := NewHashJoin(NewScan(bp.Schema, bp), NewScan(pp.Schema, pp), buildSch, probeSch,
		[]expr.Expr{expr.NewCol(0, "bk")}, []expr.Expr{expr.NewCol(0, "pk")})
	out := runWorkers(hj, 4)

	// Expected matches: probe keys 0..99 appear ⌈1000/150⌉ or ⌊..⌋ times.
	want := 0
	for i := 0; i < 1000; i++ {
		if i%150 < 100 {
			want++
		}
	}
	if got := totalTuples(out); got != want {
		t.Fatalf("join produced %d tuples, want %d", got, want)
	}
	// Verify join correctness: bv must equal bk*10 and bk == pk.
	for _, b := range out {
		for i := 0; i < b.NumTuples(); i++ {
			bk := b.Get(i, 0).I
			bv := b.Get(i, 1).I
			pk := b.Get(i, 2).I
			if bk != pk || bv != bk*10 {
				t.Fatalf("bad joined row: bk=%d bv=%d pk=%d", bk, bv, pk)
			}
		}
	}
	if hj.BuildRows() != 100 {
		t.Fatalf("build rows = %d", hj.BuildRows())
	}
}

func TestHashJoinDuplicateBuildKeys(t *testing.T) {
	buildSch := types.NewSchema(types.Col("k", types.Int64), types.Col("tag", types.Int64))
	probeSch := types.NewSchema(types.Col("k", types.Int64))
	bp := buildPartition(buildSch, 30, 512, func(i int, rec []byte) {
		types.PutValue(rec, buildSch, 0, types.IntVal(int64(i%3))) // 10 dups each
		types.PutValue(rec, buildSch, 1, types.IntVal(int64(i)))
	})
	pp := buildPartition(probeSch, 3, 512, func(i int, rec []byte) {
		types.PutValue(rec, probeSch, 0, types.IntVal(int64(i)))
	})
	hj := NewHashJoin(NewScan(bp.Schema, bp), NewScan(pp.Schema, pp), buildSch, probeSch,
		[]expr.Expr{expr.NewCol(0, "k")}, []expr.Expr{expr.NewCol(0, "k")})
	out := runWorkers(hj, 2)
	if got := totalTuples(out); got != 30 {
		t.Fatalf("fan-out join produced %d, want 30", got)
	}
}

// TestHashJoinProbeRowsRepeatThenSkip probes with one block whose match
// rows are exactly [0, 0, 2]: row 0 matches two build rows, row 1 none,
// row 2 one. Those indexes span as many positions as there are matches,
// yet they are not one contiguous run, so every output row must carry
// its own probe row's columns, of every width.
func TestHashJoinProbeRowsRepeatThenSkip(t *testing.T) {
	buildSch := types.NewSchema(types.Col("bk", types.Int64), types.Col("tag", types.Int64))
	probeSch := types.NewSchema(types.Col("pk", types.Int64), types.Col("pv", types.Int64),
		types.Char("ps", 3))
	buildKeys := []int64{10, 10, 30}
	bp := buildPartition(buildSch, len(buildKeys), 512, func(i int, rec []byte) {
		types.PutValue(rec, buildSch, 0, types.IntVal(buildKeys[i]))
		types.PutValue(rec, buildSch, 1, types.IntVal(int64(i)))
	})
	probe := []struct {
		k int64
		s string
	}{{10, "aaa"}, {20, "bbb"}, {30, "ccc"}}
	pp := buildPartition(probeSch, len(probe), 512, func(i int, rec []byte) {
		types.PutValue(rec, probeSch, 0, types.IntVal(probe[i].k))
		types.PutValue(rec, probeSch, 1, types.IntVal(probe[i].k*10))
		types.PutValue(rec, probeSch, 2, types.StrVal(probe[i].s))
	})
	if blocks := len(pp.Blocks); blocks != 1 {
		t.Fatalf("probe side is %d blocks, want the one block [0, 0, 2] comes from", blocks)
	}
	hj := NewHashJoin(NewScan(bp.Schema, bp), NewScan(pp.Schema, pp), buildSch, probeSch,
		[]expr.Expr{expr.NewCol(0, "bk")}, []expr.Expr{expr.NewCol(0, "pk")})
	out := runWorkers(hj, 1)
	if got := totalTuples(out); got != 3 {
		t.Fatalf("join produced %d rows, want 3", got)
	}
	wantS := map[int64]string{10: "aaa", 30: "ccc"}
	tags := map[int64]bool{}
	for _, b := range out {
		for i := 0; i < b.NumTuples(); i++ {
			bk, tag := b.Get(i, 0).I, b.Get(i, 1).I
			pk, pv, ps := b.Get(i, 2).I, b.Get(i, 3).I, b.Get(i, 4).S
			if pk != bk || pv != bk*10 || ps != wantS[bk] {
				t.Errorf("row %d: build (%d, tag %d) beside probe (%d, %d, %q)", i, bk, tag, pk, pv, ps)
			}
			tags[tag] = true
		}
	}
	if len(tags) != 3 {
		t.Errorf("build rows matched: %v, want tags 0, 1 and 2", tags)
	}
}

func TestHashJoinEmptyBuild(t *testing.T) {
	sch := types.NewSchema(types.Col("k", types.Int64))
	bp := buildPartition(sch, 0, 512, func(int, []byte) {})
	pp := buildPartition(sch, 100, 512, func(i int, rec []byte) {
		types.PutValue(rec, sch, 0, types.IntVal(int64(i)))
	})
	hj := NewHashJoin(NewScan(bp.Schema, bp), NewScan(pp.Schema, pp), sch, sch,
		[]expr.Expr{expr.NewCol(0, "k")}, []expr.Expr{expr.NewCol(0, "k")})
	out := runWorkers(hj, 3)
	if got := totalTuples(out); got != 0 {
		t.Fatalf("join over empty build produced %d tuples", got)
	}
}

// Property: hash join agrees with a nested-loop reference on random
// small inputs (DESIGN.md invariant).
func TestHashJoinAgainstReference(t *testing.T) {
	sch := types.NewSchema(types.Col("k", types.Int64), types.Col("v", types.Int64))
	f := func(seed int64, bn, pn uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nb, np := int(bn%40)+1, int(pn%60)+1
		bkeys := make([]int64, nb)
		pkeys := make([]int64, np)
		for i := range bkeys {
			bkeys[i] = int64(rng.Intn(10))
		}
		for i := range pkeys {
			pkeys[i] = int64(rng.Intn(10))
		}
		bp := buildPartition(sch, nb, 256, func(i int, rec []byte) {
			types.PutValue(rec, sch, 0, types.IntVal(bkeys[i]))
			types.PutValue(rec, sch, 1, types.IntVal(int64(i)))
		})
		pp := buildPartition(sch, np, 256, func(i int, rec []byte) {
			types.PutValue(rec, sch, 0, types.IntVal(pkeys[i]))
			types.PutValue(rec, sch, 1, types.IntVal(int64(i)))
		})
		hj := NewHashJoin(NewScan(bp.Schema, bp), NewScan(pp.Schema, pp), sch, sch,
			[]expr.Expr{expr.NewCol(0, "k")}, []expr.Expr{expr.NewCol(0, "k")})
		out := runWorkers(hj, 1+int(seed%3+3)%3)
		want := 0
		for _, bk := range bkeys {
			for _, pk := range pkeys {
				if bk == pk {
					want++
				}
			}
		}
		return totalTuples(out) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func aggPartition(rows, mod int) (sch *types.Schema, mk func() Iterator) {
	sch = types.NewSchema(types.Col("g", types.Int64), types.Col("v", types.Int64))
	p := buildPartition(sch, rows, 1024, func(i int, rec []byte) {
		types.PutValue(rec, sch, 0, types.IntVal(int64(i%mod)))
		types.PutValue(rec, sch, 1, types.IntVal(int64(i)))
	})
	return sch, func() Iterator { return NewScan(p.Schema, p) }
}

func checkAggResult(t *testing.T, algo AggAlgorithm, workers int) {
	t.Helper()
	const rows, mod = 10000, 7
	sch, mk := aggPartition(rows, mod)
	ha := NewHashAgg(mk(), sch,
		[]expr.Expr{expr.NewCol(0, "g")}, []string{"g"},
		[]AggSpec{
			{Func: Sum, Arg: expr.NewCol(1, "v"), Name: "s"},
			{Func: Count, Name: "c"},
			{Func: Min, Arg: expr.NewCol(1, "v"), Name: "mn"},
			{Func: Max, Arg: expr.NewCol(1, "v"), Name: "mx"},
			{Func: Avg, Arg: expr.NewCol(1, "v"), Name: "av"},
		}, algo)
	out := runWorkers(ha, workers)
	if got := totalTuples(out); got != mod {
		t.Fatalf("algo %d: %d groups, want %d", algo, got, mod)
	}
	// Reference aggregation.
	sum := make(map[int64]int64)
	cnt := make(map[int64]int64)
	mn := make(map[int64]int64)
	mx := make(map[int64]int64)
	for i := 0; i < rows; i++ {
		g := int64(i % mod)
		sum[g] += int64(i)
		cnt[g]++
		if _, ok := mn[g]; !ok || int64(i) < mn[g] {
			mn[g] = int64(i)
		}
		if int64(i) > mx[g] {
			mx[g] = int64(i)
		}
	}
	for _, b := range out {
		for i := 0; i < b.NumTuples(); i++ {
			g := b.Get(i, 0).I
			if got := b.Get(i, 1).I; got != sum[g] {
				t.Errorf("group %d sum = %d, want %d", g, got, sum[g])
			}
			if got := b.Get(i, 2).I; got != cnt[g] {
				t.Errorf("group %d count = %d, want %d", g, got, cnt[g])
			}
			if got := b.Get(i, 3).I; got != mn[g] {
				t.Errorf("group %d min = %d, want %d", g, got, mn[g])
			}
			if got := b.Get(i, 4).I; got != mx[g] {
				t.Errorf("group %d max = %d, want %d", g, got, mx[g])
			}
			wantAvg := float64(sum[g]) / float64(cnt[g])
			if got := b.Get(i, 5).F; got != wantAvg {
				t.Errorf("group %d avg = %f, want %f", g, got, wantAvg)
			}
		}
	}
}

func TestHashAggSharedSingle(t *testing.T)   { checkAggResult(t, SharedAgg, 1) }
func TestHashAggSharedParallel(t *testing.T) { checkAggResult(t, SharedAgg, 6) }
func TestHashAggIndependent(t *testing.T)    { checkAggResult(t, IndependentAgg, 4) }
func TestHashAggHybrid(t *testing.T)         { checkAggResult(t, HybridAgg, 4) }

func TestHashAggLargeCardinalityHybridOverflow(t *testing.T) {
	// More groups than MaxPrivateGroups forces the overflow path.
	const rows = 30000
	sch, mk := aggPartition(rows, 10000)
	ha := NewHashAgg(mk(), sch,
		[]expr.Expr{expr.NewCol(0, "g")}, []string{"g"},
		[]AggSpec{{Func: Count, Name: "c"}}, HybridAgg)
	out := runWorkers(ha, 4)
	if got := totalTuples(out); got != 10000 {
		t.Fatalf("groups = %d, want 10000", got)
	}
	for _, b := range out {
		for i := 0; i < b.NumTuples(); i++ {
			if c := b.Get(i, 1).I; c != 3 {
				t.Fatalf("group %d count = %d, want 3", b.Get(i, 0).I, c)
			}
		}
	}
}

func TestHashAggStringKeys(t *testing.T) {
	sch := types.NewSchema(types.Char("flag", 1), types.Col("v", types.Int64))
	p := buildPartition(sch, 1000, 512, func(i int, rec []byte) {
		flags := []string{"A", "N", "R"}
		types.PutValue(rec, sch, 0, types.StrVal(flags[i%3]))
		types.PutValue(rec, sch, 1, types.IntVal(1))
	})
	ha := NewHashAgg(NewScan(p.Schema, p), sch,
		[]expr.Expr{expr.NewCol(0, "flag")}, []string{"flag"},
		[]AggSpec{{Func: Sum, Arg: expr.NewCol(1, "v"), Name: "s"}}, SharedAgg)
	out := runWorkers(ha, 3)
	if got := totalTuples(out); got != 3 {
		t.Fatalf("groups = %d, want 3", got)
	}
	total := int64(0)
	for _, b := range out {
		for i := 0; i < b.NumTuples(); i++ {
			total += b.Get(i, 1).I
		}
	}
	if total != 1000 {
		t.Fatalf("sum over groups = %d, want 1000", total)
	}
}

// Property: all three aggregation algorithms agree (DESIGN.md invariant:
// modes must agree).
func TestAggAlgorithmsAgree(t *testing.T) {
	f := func(seed int64, rowsRaw uint16, modRaw uint8) bool {
		rows := int(rowsRaw%5000) + 1
		mod := int(modRaw%50) + 1
		sch := types.NewSchema(types.Col("g", types.Int64), types.Col("v", types.Int64))
		rng := rand.New(rand.NewSource(seed))
		vals := make([][2]int64, rows)
		for i := range vals {
			vals[i] = [2]int64{int64(rng.Intn(mod)), rng.Int63n(1000)}
		}
		mkIter := func() Iterator {
			p := buildPartition(sch, rows, 1024, func(i int, rec []byte) {
				types.PutValue(rec, sch, 0, types.IntVal(vals[i][0]))
				types.PutValue(rec, sch, 1, types.IntVal(vals[i][1]))
			})
			return NewScan(p.Schema, p)
		}
		results := make([]map[int64]int64, 3)
		for ai, algo := range []AggAlgorithm{SharedAgg, IndependentAgg, HybridAgg} {
			ha := NewHashAgg(mkIter(), sch,
				[]expr.Expr{expr.NewCol(0, "g")}, []string{"g"},
				[]AggSpec{{Func: Sum, Arg: expr.NewCol(1, "v"), Name: "s"}}, algo)
			out := runWorkers(ha, 3)
			m := make(map[int64]int64)
			for _, b := range out {
				for i := 0; i < b.NumTuples(); i++ {
					m[b.Get(i, 0).I] = b.Get(i, 1).I
				}
			}
			results[ai] = m
		}
		for _, m := range results[1:] {
			if len(m) != len(results[0]) {
				return false
			}
			for k, v := range results[0] {
				if m[k] != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestKeyVectorizedFlags: Vectorized is answered from the constructor;
// it must still tell column and fused keys from ones that fall back to
// row-at-a-time Eval (CASE), on both operators.
func TestKeyVectorizedFlags(t *testing.T) {
	sch := types.NewSchema(types.Col("k", types.Int64), types.Col("v", types.Int64))
	k, v := expr.NewCol(0, "k"), expr.NewCol(1, "v")
	caseKey := expr.NewCase([]expr.When{{Cond: expr.NewCmp(expr.GT, k, v), Then: k}}, v)
	for _, tc := range []struct {
		keys []expr.Expr
		want bool
	}{
		{[]expr.Expr{k}, true},
		{[]expr.Expr{expr.NewArith(expr.Add, k, v)}, true},
		{[]expr.Expr{k, caseKey}, false},
	} {
		hj := NewHashJoin(nil, nil, sch, sch, []expr.Expr{k}, tc.keys)
		if hj.Vectorized() != tc.want {
			t.Errorf("HashJoin probe keys %v: Vectorized = %v", tc.keys, !tc.want)
		}
		names := make([]string, len(tc.keys))
		ha := NewHashAgg(nil, sch, tc.keys, names, []AggSpec{{Func: Sum, Arg: v, Name: "s"}}, SharedAgg)
		if ha.Vectorized() != tc.want {
			t.Errorf("HashAgg keys %v: Vectorized = %v", tc.keys, !tc.want)
		}
	}
}
