package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/telemetry"
	"repro/internal/types"
)

// startQ1 has TPC-H Q1's shape: a filtered scan feeding a partial
// aggregation on every node (segment S0), repartitioned to the final
// aggregation (S1).
const startQ1 = `SELECT flag, status, sum(qty), sum(price), count(*) FROM items
	WHERE ship <= 9000 GROUP BY flag, status`

// buildStartCluster loads 40 000 rows per node into an in-process
// 3 × 2 EP cluster whose scheduler never ticks, so every worker a query
// gets is one it got when it started.
func buildStartCluster(t *testing.T) *Cluster {
	t.Helper()
	const nodes = 3
	cat := catalog.New(nodes)
	sch := types.NewSchema(
		types.Col("id", types.Int64),
		types.Col("flag", types.Int64),
		types.Col("status", types.Int64),
		types.Col("qty", types.Float64),
		types.Col("price", types.Float64),
		types.Col("ship", types.Int64),
	)
	cat.MustAdd(&catalog.Table{Name: "items", Schema: sch, PartKey: []int{0}})
	nation := types.NewSchema(types.Col("n_nationkey", types.Int64), types.Char("n_name", 15))
	cat.MustAdd(&catalog.Table{Name: "nation", Schema: nation, PartKey: []int{0}})
	c := NewCluster(Config{
		Nodes: nodes, CoresPerNode: 2, Mode: EP, SchedTick: time.Hour,
		BlockSize: 4096, ExchangeBuffer: 2, MemoryPerNode: 64 << 20,
	}, cat)
	tl, err := c.NewTableLoader("items")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40_000*nodes; i++ {
		r := tl.Row()
		types.PutValue(r, sch, 0, types.IntVal(int64(i)))
		types.PutValue(r, sch, 1, types.IntVal(int64(i%3)))
		types.PutValue(r, sch, 2, types.IntVal(int64(i%2)))
		types.PutValue(r, sch, 3, types.FloatVal(float64(i%50)))
		types.PutValue(r, sch, 4, types.FloatVal(float64(i%997)))
		types.PutValue(r, sch, 5, types.IntVal(int64(i%10_000)))
		tl.Add()
	}
	tl.Close()
	if tl, err = c.NewTableLoader("nation"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		r := tl.Row()
		types.PutValue(r, nation, 0, types.IntVal(int64(i)))
		types.PutValue(r, nation, 1, types.StrVal(fmt.Sprintf("NATION%d", i)))
		tl.Add()
	}
	tl.Close()
	return c
}

// startWidths runs q analyzed and returns, per segment and node, the
// widest its worker pool got, with the result and the query scope.
func startWidths(t *testing.T, c *Cluster, q string) (map[string]map[int]int, *Result) {
	t.Helper()
	sc := telemetry.NewScope("start")
	expands := telemetry.NewMemSink(telemetry.KindWorkerExpand)
	sc.Attach(expands)
	res, err := c.Exec(context.Background(), Request{SQL: q, Scope: sc, Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	widths := map[string]map[int]int{}
	for _, ev := range expands.Events() {
		we := ev.Rec.(telemetry.WorkerExpand)
		if widths[we.Segment] == nil {
			widths[we.Segment] = map[int]int{}
		}
		if we.Workers > widths[we.Segment][we.Node] {
			widths[we.Segment][we.Node] = we.Workers
		}
	}
	return widths, res
}

// holdCores wires q and starts its segment instances as an EP run does,
// but never drains its result: once the collector's inbox and the
// pools' buffers fill, its workers block holding their cores. The
// returned func tears it down.
func holdCores(t *testing.T, c *Cluster, q string) func() {
	t.Helper()
	p, _, err := c.CompileCached(q)
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := c.wireOnly(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range e.insts {
		e.start(inst)
	}
	return func() {
		e.fail(errors.New("released"))
		for _, inst := range e.insts {
			<-inst.done
		}
		close(e.stop)
		e.release()
	}
}

// TestEPStartTakesFreeCores: an EP segment instance starts with its
// mandatory worker and then takes every core its node has free, on the
// elective path the scheduler's expansions take — producers first, so
// the table-reading segment gets the cores and its consumer the
// mandatory worker only; a fully booked node and memory above the high
// water refuse the fill exactly as they refuse an expansion; and no
// lease or overdraft outlives the queries.
func TestEPStartTakesFreeCores(t *testing.T) {
	c := buildStartCluster(t)
	cfg := c.Config()
	want := func(t *testing.T, widths map[string]map[int]int, seg string, w int) {
		t.Helper()
		for n := 0; n < cfg.Nodes; n++ {
			if got := widths[seg][n]; got != w {
				t.Errorf("%s on node %d: %d workers at most, want %d", seg, n, got, w)
			}
		}
	}

	var free string
	t.Run("free node", func(t *testing.T) {
		widths, res := startWidths(t, c, startQ1)
		free = fingerprint(res)
		want(t, widths, "S0", cfg.CoresPerNode)
		want(t, widths, "S1", 1)
		if peak, _ := res.Analysis.SegmentWorkers(res.Analysis.Plan.Segments[0]); peak != int64(cfg.CoresPerNode) {
			t.Errorf("EXPLAIN ANALYZE: segment 0 workers peak=%d, want %d", peak, cfg.CoresPerNode)
		}
	})

	t.Run("booked node", func(t *testing.T) {
		release := holdCores(t, c, "SELECT qty, price FROM items")
		defer release()
		for n := 0; n < cfg.Nodes; n++ {
			if used := c.UsedCores(n); used != cfg.CoresPerNode {
				t.Fatalf("node %d: the holding query leased %d cores, want %d", n, used, cfg.CoresPerNode)
			}
		}
		widths, res := startWidths(t, c, startQ1)
		want(t, widths, "S0", 1)
		want(t, widths, "S1", 1)
		if got := fingerprint(res); got != free {
			t.Errorf("rows on a booked node differ from the free run's")
		}
		for n := 0; n < cfg.Nodes; n++ {
			if over := c.OversubscribedCores(n); over != 0 {
				t.Errorf("node %d: %d oversubscribed workers outlived their query", n, over)
			}
		}
	})

	t.Run("memory above the high water", func(t *testing.T) {
		for n := 0; n <= cfg.Nodes; n++ {
			hog := c.memBudgets[n].Sub("hog")
			if err := hog.Reserve(cfg.MemoryPerNode * 8 / 10); err != nil {
				t.Fatal(err)
			}
			defer hog.Drop()
		}
		widths, res := startWidths(t, c, startQ1)
		want(t, widths, "S0", 1)
		if n := res.Scope.Counter(telemetry.CtrMemRefusedExpands).Load(); n == 0 {
			t.Errorf("%s = 0: the start-time fill was not refused", telemetry.CtrMemRefusedExpands)
		}
	})

	for n := 0; n <= cfg.Nodes; n++ {
		if used, over := c.UsedCores(n), c.OversubscribedCores(n); used != 0 || over != 0 {
			t.Errorf("node %d after the drain: %d cores leased, %d oversubscribed", n, used, over)
		}
	}
}

// TestEPStartFillStopsAtTheScansBlocks: the start-time fill gives a
// table-reading instance no more workers than its scan has blocks on
// that node, so a one-block scan runs on its mandatory worker alone
// (a second would find nothing to read). The 25-row nation table is one
// block per node.
func TestEPStartFillStopsAtTheScansBlocks(t *testing.T) {
	c := buildStartCluster(t)
	widths, res := startWidths(t, c, "SELECT n_name FROM nation WHERE n_nationkey = 3")
	for n, w := range widths["S0"] {
		if w != 1 {
			t.Errorf("S0 on node %d: %d workers at most, want 1", n, w)
		}
	}
	if peak, _ := res.Analysis.SegmentWorkers(res.Analysis.Plan.Segments[0]); peak != 1 {
		t.Errorf("EXPLAIN ANALYZE: segment 0 workers peak=%d, want 1", peak)
	}
	if res.NumRows() != 1 {
		t.Errorf("%d rows, want 1", res.NumRows())
	}
}
