package plan

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/iterator"
	"repro/internal/types"
)

// testCatalog mirrors the paper's SSE schema plus a TPC-H subset.
func testCatalog() *catalog.Catalog {
	cat := catalog.New(4)
	secs := types.NewSchema(
		types.Col("order_no", types.Int64),
		types.Col("acct_id", types.Int64),
		types.Col("sec_code", types.Int64),
		types.Col("entry_date", types.Date),
		types.Col("entry_volume", types.Float64),
	)
	cat.MustAdd(&catalog.Table{
		Name: "securities", Schema: secs,
		PartKey: []int{1}, // acct_id
		Stats:   catalog.TableStats{Rows: 840_000_000},
	})
	trades := types.NewSchema(
		types.Col("acct_id", types.Int64),
		types.Col("sec_code", types.Int64),
		types.Col("trade_date", types.Date),
		types.Col("trade_time", types.Int64),
		types.Col("order_price", types.Float64),
		types.Col("trade_volume", types.Float64),
	)
	cat.MustAdd(&catalog.Table{
		Name: "trades", Schema: trades,
		PartKey: []int{1}, // sec_code (as in Section 5.3)
		Stats: catalog.TableStats{Rows: 840_000_000, Cols: map[string]catalog.ColStats{
			"acct_id": {NDV: 4_200_000}, "sec_code": {NDV: 1000},
		}},
	})
	orders := types.NewSchema(
		types.Col("o_orderkey", types.Int64),
		types.Col("o_custkey", types.Int64),
		types.Col("o_orderdate", types.Date),
		types.Char("o_comment", 40),
	)
	cat.MustAdd(&catalog.Table{
		Name: "orders", Schema: orders,
		PartKey: []int{0},
		Stats:   catalog.TableStats{Rows: 150_000_000},
	})
	lineitem := types.NewSchema(
		types.Col("l_orderkey", types.Int64),
		types.Col("l_quantity", types.Float64),
		types.Col("l_discount", types.Float64),
		types.Col("l_shipdate", types.Date),
		types.Char("l_returnflag", 1),
		types.Char("l_linestatus", 1),
		types.Col("l_commitdate", types.Date),
	)
	cat.MustAdd(&catalog.Table{
		Name: "lineitem", Schema: lineitem,
		PartKey: []int{0},
		Stats:   catalog.TableStats{Rows: 600_000_000},
	})
	return cat
}

func compile(t *testing.T, q string) *Plan {
	t.Helper()
	p, err := Compile(q, testCatalog())
	if err != nil {
		t.Fatalf("Compile(%q): %v\n", q, err)
	}
	return p
}

func countMergers(op PhysOp) int {
	switch n := op.(type) {
	case *PMerger:
		return 1
	case *PFilter:
		return countMergers(n.Child)
	case *PProject:
		return countMergers(n.Child)
	case *PHashJoin:
		return countMergers(n.Build) + countMergers(n.Probe)
	case *PHashAgg:
		return countMergers(n.Child)
	case *PSort:
		return countMergers(n.Child)
	case *PTopN:
		return countMergers(n.Child)
	case *PLimit:
		return countMergers(n.Child)
	}
	return 0
}

func TestPlanSimpleFilterScan(t *testing.T) {
	p := compile(t, "SELECT * FROM orders WHERE o_orderdate < '1995-03-15'")
	if len(p.Segments) != 1 {
		t.Fatalf("segments = %d, want 1\n%s", len(p.Segments), p)
	}
	scan, ok := p.Final.Root.(*PScan)
	if !ok {
		t.Fatalf("root = %T, want pushed-down filter scan\n%s", p.Final.Root, p)
	}
	if scan.Pred == nil {
		t.Fatal("filter not pushed into scan")
	}
}

// SSE-Q9 must decompose into the paper's three segments (Figure 1b):
// S1 = scan T + filter + repartition(acct_id);
// S2 = merger + join build, local scan S + filter probe, partial agg +
//
//	repartition(group keys);
//
// S3 = final aggregation + projection (the result).
func TestPlanSSEQ9ThreeSegments(t *testing.T) {
	q := `SELECT sec_code, acct_id, sum(trade_volume), sum(entry_volume)
	      FROM Trades T, Securities S
	      WHERE T.trade_date = '2010-10-30' AND S.entry_date = '2010-10-30'
	      AND T.acct_id = S.acct_id
	      GROUP BY T.sec_code, S.acct_id`
	p := compile(t, q)
	if len(p.Segments) != 3 {
		t.Fatalf("segments = %d, want 3\n%s", len(p.Segments), p)
	}
	if len(p.Exchanges) != 2 {
		t.Fatalf("exchanges = %d, want 2\n%s", len(p.Exchanges), p)
	}
	// S1: scan of trades (build side) repartitioned on the join key.
	s1 := p.Segments[0]
	if s1.Out == nil || s1.Out.PartKeys == nil {
		t.Fatalf("segment 0 should repartition\n%s", p)
	}
	root := s1.Root
	if pr, ok := root.(*PProject); ok {
		root = pr.Child // column pruning projection
	}
	if sc, ok := root.(*PScan); !ok || sc.Table.Name != "trades" {
		t.Fatalf("segment 0 root = %T (%s)\n%s", s1.Root, p, p)
	}
	// S2: the join (merger on build side), shipping raw join output
	// repartitioned on the group keys (Figure 1b: no partial agg).
	s2 := p.Segments[1]
	join, ok := s2.Root.(*PHashJoin)
	if !ok {
		t.Fatalf("segment 1 root = %T, want join\n%s", s2.Root, p)
	}
	if _, ok := join.Build.(*PMerger); !ok {
		t.Fatalf("join build side should be a merger, got %T\n%s", join.Build, p)
	}
	if s2.Out == nil || s2.Out.PartKeys == nil {
		t.Fatalf("segment 1 should repartition on group keys\n%s", p)
	}
	// S3: final aggregation, produces the result.
	s3 := p.Segments[2]
	if s3.Out != nil || p.Final != s3 {
		t.Fatalf("segment 2 should be the result segment\n%s", p)
	}
}

func TestPlanColocatedJoinNoExchange(t *testing.T) {
	// orders and lineitem are both partitioned on the join key: the
	// join must be fully local (S-Q5).
	p := compile(t, "SELECT * FROM orders, lineitem WHERE l_orderkey = o_orderkey")
	if len(p.Segments) != 1 {
		t.Fatalf("co-located join should be one segment, got %d\n%s", len(p.Segments), p)
	}
	if n := countMergers(p.Final.Root); n != 0 {
		t.Fatalf("co-located join has %d mergers\n%s", n, p)
	}
}

func TestPlanGroupByOnPartitionKeySinglePhase(t *testing.T) {
	// Trades is partitioned on sec_code; grouping by sec_code needs no
	// repartition and aggregates in one phase.
	p := compile(t, "SELECT sec_code, sum(trade_volume) FROM trades GROUP BY sec_code")
	if len(p.Segments) != 1 {
		t.Fatalf("segments = %d, want 1\n%s", len(p.Segments), p)
	}
}

func TestPlanGroupByOtherKeyTwoPhase(t *testing.T) {
	// SSE-Q7 groups by acct_id while trades is partitioned on sec_code:
	// partial agg → repartition → final agg.
	p := compile(t, "SELECT acct_id, sum(trade_volume) FROM trades GROUP BY acct_id")
	if len(p.Segments) != 2 {
		t.Fatalf("segments = %d, want 2\n%s", len(p.Segments), p)
	}
	if p.Segments[0].Out.PartKeys == nil {
		t.Fatalf("scan output should repartition on the group key\n%s", p)
	}
	root0 := p.Segments[0].Root
	if pr, ok := root0.(*PProject); ok {
		root0 = pr.Child
	}
	if _, ok := root0.(*PScan); !ok {
		t.Fatalf("segment 0 root = %T, want raw (pruned) scan, no partial agg\n%s", p.Segments[0].Root, p)
	}
}

func TestPlanScalarAggGathersToMaster(t *testing.T) {
	p := compile(t, `SELECT count(*) FROM trades T, securities S
		WHERE S.sec_code = 600036 AND T.trade_date = '2010-10-30'
		AND S.acct_id = T.acct_id`)
	if !p.Final.OnMaster {
		t.Fatalf("scalar aggregate must finish on master\n%s", p)
	}
	if len(p.OutputNames) != 1 {
		t.Fatalf("output names = %v", p.OutputNames)
	}
}

func TestPlanOrderByGathersAndSorts(t *testing.T) {
	p := compile(t, `SELECT l_returnflag, l_linestatus, sum(l_quantity) sq
		FROM lineitem GROUP BY l_returnflag, l_linestatus
		ORDER BY l_returnflag, l_linestatus`)
	if !p.Final.OnMaster {
		t.Fatalf("sort should run on master\n%s", p)
	}
	if _, ok := p.Final.Root.(*PSort); !ok {
		t.Fatalf("final root = %T, want sort\n%s", p.Final.Root, p)
	}
	if !p.Final.OrderPreserving {
		t.Fatal("sort segment should be order preserving")
	}
}

func TestPlanTopNPushedDown(t *testing.T) {
	p := compile(t, `SELECT o_orderkey, o_orderdate FROM orders
		ORDER BY o_orderdate DESC LIMIT 10`)
	// Expect: local top-N on slaves (segment 0) + final top-N on master.
	if len(p.Segments) != 2 {
		t.Fatalf("segments = %d, want 2\n%s", len(p.Segments), p)
	}
	if _, ok := p.Segments[0].Root.(*PTopN); !ok {
		t.Fatalf("local top-N missing: %T\n%s", p.Segments[0].Root, p)
	}
	if _, ok := p.Final.Root.(*PTopN); !ok {
		t.Fatalf("final top-N missing: %T\n%s", p.Final.Root, p)
	}
}

func TestPlanOutputNames(t *testing.T) {
	p := compile(t, `SELECT acct_id, sum(trade_volume) AS vol FROM trades GROUP BY acct_id`)
	if p.OutputNames[0] != "acct_id" || p.OutputNames[1] != "vol" {
		t.Fatalf("output names = %v", p.OutputNames)
	}
}

func TestPlanUnknownTable(t *testing.T) {
	if _, err := Compile("SELECT * FROM missing", testCatalog()); err == nil {
		t.Fatal("expected unknown-table error")
	}
}

func TestPlanUnknownColumn(t *testing.T) {
	if _, err := Compile("SELECT nope FROM orders", testCatalog()); err == nil {
		t.Fatal("expected unknown-column error")
	}
}

func TestPlanCrossJoinRejected(t *testing.T) {
	if _, err := Compile("SELECT * FROM orders, lineitem", testCatalog()); err == nil {
		t.Fatal("expected cross-join rejection")
	}
}

func TestPlanDerivedTable(t *testing.T) {
	p := compile(t, `SELECT v FROM
		(SELECT acct_id a, sum(trade_volume) v FROM trades GROUP BY acct_id) agg
		WHERE v > 100`)
	if p.Final == nil {
		t.Fatal("no final segment")
	}
	if p.OutputNames[0] != "v" {
		t.Fatalf("output names = %v", p.OutputNames)
	}
}

func TestPlanStringRendering(t *testing.T) {
	p := compile(t, "SELECT acct_id, sum(trade_volume) FROM trades GROUP BY acct_id")
	s := p.String()
	if s == "" {
		t.Fatal("empty plan rendering")
	}
}

func TestPlanColumnPruning(t *testing.T) {
	// Only acct_id and trade_volume are referenced: the exchange must
	// ship a 2-column projection, not the full 6-column trades row.
	p := compile(t, "SELECT acct_id, sum(trade_volume) FROM trades GROUP BY acct_id")
	pr, ok := p.Segments[0].Root.(*PProject)
	if !ok {
		t.Fatalf("segment 0 root = %T, want pruning projection\n%s", p.Segments[0].Root, p)
	}
	if got := pr.Schema().NumCols(); got != 2 {
		t.Fatalf("pruned width = %d cols, want 2\n%s", got, p)
	}
}

func TestPlanLowCardinalityUsesPartialAgg(t *testing.T) {
	// Grouping by trade_date (NDV 60 in the test catalog stats would be
	// unknown here — give a catalog with stats) is below the partial
	// aggregation threshold, so segment 0 should aggregate locally.
	cat := testCatalog()
	tbl, _ := cat.Lookup("lineitem")
	tbl.Stats.Cols = map[string]catalog.ColStats{"l_returnflag": {NDV: 3}}
	p, err := Compile("SELECT l_returnflag, sum(l_quantity) FROM lineitem GROUP BY l_returnflag", cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Segments[0].Root.(*PHashAgg); !ok {
		t.Fatalf("segment 0 root = %T, want partial agg for 3 groups\n%s", p.Segments[0].Root, p)
	}
}

// TestOrderSegmentsRejectsCycle: the producers-first order is
// established (and a graph that has none rejected) at compile time, so
// executors never sort or detect cycles per query.
func TestOrderSegmentsRejectsCycle(t *testing.T) {
	sch := types.NewSchema(types.Col("k", types.Int64))
	seg := func(id, in, out int) *Segment {
		return &Segment{ID: id, Root: &PMerger{Exchange: in, Sch: sch}, Out: &OutSpec{Exchange: out}}
	}
	// Consumer listed before its producer: reordered, not rejected.
	p := &Plan{
		Segments:  []*Segment{seg(1, 0, 9), {ID: 0, Root: &PMerger{Exchange: 8, Sch: sch}, Out: &OutSpec{Exchange: 0}}},
		Exchanges: []*ExchangeSpec{{ID: 0, Producer: 0, Consumer: 1, Sch: sch}},
	}
	if err := p.orderSegments(); err != nil {
		t.Fatalf("acyclic plan rejected: %v", err)
	}
	if p.Segments[0].ID != 0 || p.Segments[1].ID != 1 {
		t.Fatalf("segments not producers-first: %d, %d", p.Segments[0].ID, p.Segments[1].ID)
	}
	// 0 -> 1 -> 0.
	cyclic := &Plan{
		Segments: []*Segment{seg(0, 1, 0), seg(1, 0, 1)},
		Exchanges: []*ExchangeSpec{
			{ID: 0, Producer: 0, Consumer: 1, Sch: sch},
			{ID: 1, Producer: 1, Consumer: 0, Sch: sch},
		},
	}
	if err := cyclic.orderSegments(); err == nil {
		t.Fatal("cyclic exchange graph accepted")
	}
	dangling := &Plan{
		Segments:  []*Segment{seg(0, 1, 0)},
		Exchanges: []*ExchangeSpec{{ID: 0, Producer: 0, Consumer: 7, Sch: sch}},
	}
	if err := dangling.orderSegments(); err == nil {
		t.Fatal("dangling exchange accepted")
	}
}

// TestEstimateRowsCoversEveryLogical: the estimate's rows decide which
// side of a join is built, and the rule's switch is closed — a Logical
// it has no case for panics instead of estimating "very large", which
// is how every column-pruned input once tied and no join ever swapped
// sides. The table has one value per Logical type declared in
// logical.go (read from the source, so a new operator fails here until
// it has a row and a case), each over a 900-row scan whose column has
// 40 distinct values.
func TestEstimateRowsCoversEveryLogical(t *testing.T) {
	cat := catalog.New(2)
	tbl := &catalog.Table{Name: "t", Stats: catalog.TableStats{Rows: 900,
		Cols: map[string]catalog.ColStats{"g": {NDV: 40}}}}
	cat.MustAdd(tbl)
	b := &binder{cat: cat}
	scan := b.estimated(&LScan{Table: tbl})
	g := expr.NewCol(0, "t.g")
	rows := map[string]struct {
		l    Logical
		want int64
	}{
		"LScan":    {&LScan{Table: tbl, Pred: expr.NewConst(types.IntVal(1))}, 300},
		"LFilter":  {&LFilter{Child: scan}, 300},
		"LJoin":    {&LJoin{Left: b.estimated(&LFilter{Child: scan}), Right: scan}, 900},
		"LAgg":     {&LAgg{Child: scan, Keys: []expr.Expr{g}}, 40},
		"LProject": {&LProject{Child: scan}, 900},
		"LSort":    {&LSort{Child: scan}, 900},
		"LTopN":    {&LTopN{Child: scan, N: 10}, 10},
		"LLimit":   {&LLimit{Child: scan, N: 5000}, 900},
		"derived":  {&derived{child: scan}, 900},
	}
	f, err := parser.ParseFile(token.NewFileSet(), "logical.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := 0
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Recv == nil || fn.Name.Name != "Schema" {
			continue
		}
		star, ok := fn.Recv.List[0].Type.(*ast.StarExpr)
		if !ok {
			continue
		}
		name := star.X.(*ast.Ident).Name
		declared++
		row, ok := rows[name]
		if !ok {
			t.Errorf("Logical %s has no row here: give binder.estimated a case for it", name)
			continue
		}
		if got := b.estimated(row.l).Estimate().Rows; got != row.want {
			t.Errorf("estimated(%s).Rows = %d, want %d", name, got, row.want)
		}
	}
	if declared != len(rows) {
		t.Errorf("logical.go declares %d Logical types, the table has %d", declared, len(rows))
	}
}

// TestChooseAggAlgorithmByEstimate: the group estimate alone picks the
// algorithm, with the hybrid private table's cap as the line. A guessed
// estimate stays shared whatever its value, a scalar aggregate's (1) is
// hybrid.
func TestChooseAggAlgorithmByEstimate(t *testing.T) {
	for _, tc := range []struct {
		est   int64
		known bool
		want  iterator.AggAlgorithm
	}{
		{0, false, iterator.SharedAgg},
		{50, false, iterator.SharedAgg},   // a computed key's guess
		{1000, false, iterator.SharedAgg}, // a column without an NDV
		{1, true, iterator.HybridAgg},
		{2466, true, iterator.HybridAgg},
		{iterator.MaxPrivateGroups, true, iterator.HybridAgg},
		{iterator.MaxPrivateGroups + 1, true, iterator.SharedAgg},
		{1 << 60, true, iterator.SharedAgg},
	} {
		if got := chooseAggAlgorithm(Est{Groups: tc.est, Known: tc.known}); got != tc.want {
			t.Errorf("Groups %d known %v: %s, want %s", tc.est, tc.known, got, tc.want)
		}
	}
}
