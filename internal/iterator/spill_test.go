package iterator

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/block"
	"repro/internal/expr"
	"repro/internal/telemetry"
	"repro/internal/types"
)

// rowMultiset fingerprints output blocks as a row-string multiset, so
// spilled and resident runs can be compared order-insensitively.
func rowMultiset(blocks []*block.Block) map[string]int {
	m := make(map[string]int)
	for _, b := range blocks {
		for i := 0; i < b.NumTuples(); i++ {
			s := ""
			for c := range b.Schema().Cols {
				s += fmt.Sprintf("|%v", b.Get(i, c))
			}
			m[s]++
		}
	}
	return m
}

func runJoinWithBudget(t *testing.T, probeKey expr.Expr, limit int64, dir string) (map[string]int, *HashJoin, *block.Tracker) {
	t.Helper()
	buildSch := types.NewSchema(types.Col("bk", types.Int64), types.Col("bv", types.Int64))
	probeSch := types.NewSchema(types.Col("pk", types.Int64), types.Col("pv", types.Int64))
	bp := buildPartition(buildSch, 20000, 4096, func(i int, rec []byte) {
		types.PutValue(rec, buildSch, 0, types.IntVal(int64(i%1000)))
		types.PutValue(rec, buildSch, 1, types.IntVal(int64(i)))
	})
	pp := buildPartition(probeSch, 3000, 4096, func(i int, rec []byte) {
		types.PutValue(rec, probeSch, 0, types.IntVal(int64(i%1500)))
		types.PutValue(rec, probeSch, 1, types.IntVal(int64(i)))
	})
	hj := NewHashJoin(NewScan(bp.Schema, bp), NewScan(pp.Schema, pp), buildSch, probeSch,
		[]expr.Expr{expr.NewCol(0, "bk")}, []expr.Expr{probeKey})
	var acct *block.Tracker
	if limit > 0 {
		acct = block.NewBudget("node", limit).Sub("join")
		hj.Mem = &MemConfig{Acct: acct, SpillDir: dir, Op: "hashjoin",
			Scope: telemetry.NewScope("test")}
	}
	out := runWorkers(hj, 4)
	if err := hj.SpillError(); err != nil {
		t.Fatalf("spill error: %v", err)
	}
	m := rowMultiset(out)
	hj.Close()
	return m, hj, acct
}

// TestHashJoinSpillEquivalence forces the join through the partition
// spill path with a budget far below the build size and checks the
// output multiset matches the unconstrained run exactly, for a word key
// (both sides a column) and a byte key (the probe side computed).
func TestHashJoinSpillEquivalence(t *testing.T) {
	pk := expr.NewCol(0, "pk")
	for _, tc := range []struct {
		name string
		key  expr.Expr
		word bool
	}{
		{"word key", pk, true},
		{"byte key", expr.NewArith(expr.Add, pk, expr.NewConst(types.IntVal(0))), false},
	} {
		t.Run(tc.name, func(t *testing.T) { testJoinSpill(t, tc.key, tc.word) })
	}
}

func testJoinSpill(t *testing.T, probeKey expr.Expr, word bool) {
	want, base, _ := runJoinWithBudget(t, probeKey, 0, "")
	if base.Spilled() != 0 {
		t.Fatalf("unbudgeted run spilled %d shards", base.Spilled())
	}
	if base.WordKey() != word {
		t.Fatalf("WordKey = %v, want %v", base.WordKey(), word)
	}
	got, hj, acct := runJoinWithBudget(t, probeKey, 96<<10, t.TempDir())
	if hj.Spilled() == 0 {
		t.Fatal("budgeted run did not spill; budget not binding")
	}
	if len(got) != len(want) {
		t.Fatalf("distinct rows: got %d want %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("row %q: got %d want %d", k, got[k], n)
		}
	}
	if cur := acct.Current(); cur != 0 {
		t.Fatalf("join account holds %d bytes after Close", cur)
	}
	sc := hj.Mem.Scope
	if sc.Counter(telemetry.CtrSpillEvents).Load() == 0 {
		t.Fatal("no spill events recorded")
	}
	if sc.Counter(telemetry.CtrSpillBytes).Load() == 0 {
		t.Fatal("no spill bytes recorded")
	}
}

func runAggWithBudget(t *testing.T, algo AggAlgorithm, limit int64, dir string) (map[string]int, *HashAgg, *block.Tracker) {
	t.Helper()
	sch := types.NewSchema(types.Col("k", types.Int64), types.Col("v", types.Int64))
	p := buildPartition(sch, 30000, 4096, func(i int, rec []byte) {
		types.PutValue(rec, sch, 0, types.IntVal(int64(i%7001)))
		types.PutValue(rec, sch, 1, types.IntVal(int64(i)))
	})
	ha := NewHashAgg(NewScan(p.Schema, p), sch,
		[]expr.Expr{expr.NewCol(0, "k")}, []string{"k"},
		[]AggSpec{{Func: Sum, Arg: expr.NewCol(1, "v"), Name: "s"},
			{Func: Count, Name: "c"}}, algo)
	var acct *block.Tracker
	if limit > 0 {
		acct = block.NewBudget("node", limit).Sub("agg")
		ha.Mem = &MemConfig{Acct: acct, SpillDir: dir, Op: "hashagg",
			Scope: telemetry.NewScope("test")}
	}
	out := runWorkers(ha, 4)
	if err := ha.SpillError(); err != nil {
		t.Fatalf("spill error: %v", err)
	}
	m := rowMultiset(out)
	ha.Close()
	return m, ha, acct
}

// TestHashAggSpillEquivalence forces shards into spill mode and checks
// the aggregated results match the unconstrained run for both the
// shared and the hybrid algorithm.
func TestHashAggSpillEquivalence(t *testing.T) {
	for _, algo := range []AggAlgorithm{SharedAgg, HybridAgg} {
		want, _, _ := runAggWithBudget(t, algo, 0, "")
		got, ha, acct := runAggWithBudget(t, algo, 200<<10, t.TempDir())
		sc := ha.Mem.Scope
		if sc.Counter(telemetry.CtrSpillEvents).Load() == 0 {
			t.Fatalf("algo %d: budgeted run did not spill; budget not binding", algo)
		}
		if len(got) != len(want) {
			t.Fatalf("algo %d: distinct groups: got %d want %d", algo, len(got), len(want))
		}
		for k, n := range want {
			if got[k] != n {
				t.Fatalf("algo %d: group %q: got %d want %d", algo, k, got[k], n)
			}
		}
		if cur := acct.Current(); cur != 0 {
			t.Fatalf("algo %d: agg account holds %d bytes after Close", algo, cur)
		}
	}
}

// TestHashAggCloseDrainsPool checks the satellite fix: private tables
// parked by terminated workers are released (and their budget refunded)
// at Close instead of pinning dead hash tables on a serving node.
func TestHashAggCloseDrainsPool(t *testing.T) {
	sch := types.NewSchema(types.Col("k", types.Int64))
	p := buildPartition(sch, 10, 4096, func(i int, rec []byte) {
		types.PutValue(rec, sch, 0, types.IntVal(int64(i)))
	})
	ha := NewHashAgg(NewScan(p.Schema, p), sch, []expr.Expr{expr.NewCol(0, "k")},
		[]string{"k"}, []AggSpec{{Func: Count, Name: "c"}}, HybridAgg)
	acct := block.NewBudget("node", 1<<20).Sub("agg")
	ha.Mem = &MemConfig{Acct: acct, Op: "hashagg"}

	// Simulate a terminated worker parking an accounted private table.
	if !ha.Mem.reserveSmall(ha.groupBytes * 3) {
		t.Fatal("reserve failed")
	}
	pt := new(aggTable)
	for _, k := range []string{"a", "b", "c"} {
		pt.add(ha, expr.Hash64([]byte(k)), []byte(k))
	}
	ha.pool.put(pt)

	ha.Close()
	if left := ha.pool.drain(); len(left) != 0 {
		t.Fatalf("%d contexts still parked after Close", len(left))
	}
	if pt.groups() != 0 || pt.keyRows != nil || pt.accs != nil {
		t.Fatal("parked private table not released")
	}
	if cur := acct.Current(); cur != 0 {
		t.Fatalf("account holds %d bytes after Close", cur)
	}
}

// TestSpillIterateRejectsOversizedFrame corrupts a spill file's length
// prefix: read-back must fail on it rather than allocate whatever four
// bytes from disk claim, and the honest file must still round-trip.
func TestSpillIterateRejectsOversizedFrame(t *testing.T) {
	sch := types.NewSchema(types.Col("k", types.Int64))
	s, err := newSpillFile(t.TempDir(), sch)
	if err != nil {
		t.Fatal(err)
	}
	defer s.drop()
	rec := make([]byte, sch.Stride())
	const rows = 3 * block.DefaultSize / 8 // several full frames
	for i := 0; i < rows; i++ {
		types.PutValue(rec, sch, 0, types.IntVal(int64(i)))
		if err := s.add(rec); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	if err := s.iterate(func(b *block.Block) error { got += b.NumTuples(); return nil }); err != nil || got != rows {
		t.Fatalf("honest file: %d of %d rows, err %v", got, rows, err)
	}
	// 0x7fffffff bytes: within what int and make accept, far beyond a frame.
	if _, err := s.f.WriteAt([]byte{0xff, 0xff, 0xff, 0x7f}, 0); err != nil {
		t.Fatal(err)
	}
	got = 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = s.iterate(func(b *block.Block) error { got += b.NumTuples(); return nil })
	runtime.ReadMemStats(&after)
	if err == nil || got != 0 {
		t.Fatalf("corrupt length prefix: %d rows read back, err %v", got, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Fatalf("refusing the corrupt frame allocated %d MB on its say-so", grew>>20)
	}
}
