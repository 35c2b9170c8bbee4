package engine

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/types"
)

// TestExecStatsDerivedFromScope runs a distributed aggregation under a
// caller-provided scope and checks ExecStats is a faithful view of the
// scope's instruments and event stream — no independent bookkeeping.
func TestExecStatsDerivedFromScope(t *testing.T) {
	c, _ := buildTestCluster(t, EP, 3)
	scope := telemetry.NewScope("q-test")
	mem := telemetry.NewMemSink()
	scope.Attach(mem)
	res, err := c.Exec(context.Background(), Request{
		SQL: "SELECT acct_id, sum(trade_volume) FROM trades GROUP BY acct_id", Scope: scope})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scope != scope {
		t.Fatal("Result.Scope is not the scope the query ran under")
	}
	st := res.Stats
	if got := scope.Counter(telemetry.CtrNetBytes).Load(); st.NetworkBytes != got {
		t.Errorf("Stats.NetworkBytes = %d, scope counter = %d", st.NetworkBytes, got)
	}
	if st.NetworkBytes == 0 {
		t.Fatal("two-phase agg across 3 nodes must move bytes over the NIC")
	}
	if got := scope.Gauge(telemetry.GaugeMemBytes).Peak(); st.PeakMemoryBytes != got {
		t.Errorf("Stats.PeakMemoryBytes = %d, gauge peak = %d", st.PeakMemoryBytes, got)
	}
	if got := time.Duration(scope.Counter(telemetry.CtrSchedOverheadNs).Load()); st.SchedOverhead != got {
		t.Errorf("Stats.SchedOverhead = %v, scope counter = %v", st.SchedOverhead, got)
	}

	// Every byte in the counter is accounted by BlockSent events, and
	// every block crossed a node boundary.
	var evBytes int64
	for _, ev := range mem.OfKind(telemetry.KindBlockSent) {
		bs := ev.Rec.(telemetry.BlockSent)
		if bs.From == bs.To {
			t.Errorf("BlockSent within node %d", bs.From)
		}
		evBytes += int64(bs.Bytes)
	}
	if evBytes != st.NetworkBytes {
		t.Errorf("BlockSent bytes sum = %d, Stats.NetworkBytes = %d", evBytes, st.NetworkBytes)
	}
	if got := int64(len(mem.OfKind(telemetry.KindBlockSent))); got != scope.Counter(telemetry.CtrNetBlocks).Load() {
		t.Errorf("BlockSent events = %d, net.blocks counter = %d",
			got, scope.Counter(telemetry.CtrNetBlocks).Load())
	}

	// The parallelism trace is the ParallelismSample stream.
	if got := len(mem.OfKind(telemetry.KindParallelismSample)); len(st.Trace) != got {
		t.Errorf("len(Stats.Trace) = %d, sample events = %d", len(st.Trace), got)
	}

	// The query lifecycle is bracketed by QueryPhase start/end.
	phases := mem.OfKind(telemetry.KindQueryPhase)
	if len(phases) != 2 {
		t.Fatalf("QueryPhase events = %d, want start+end", len(phases))
	}
	if p := phases[0].Rec.(telemetry.QueryPhase).Phase; p != "start" {
		t.Errorf("first phase = %q", p)
	}
	if p := phases[1].Rec.(telemetry.QueryPhase).Phase; p != "end" {
		t.Errorf("last phase = %q", p)
	}
}

// TestInProcAndTCPReportSameNetworkTraffic runs the same query on the
// in-process and the TCP fabric and checks the shared telemetry shim
// makes both report identical cross-node traffic: the same tuples
// cross the same node boundaries (block boundaries, and hence header
// bytes, may differ with worker timing, so tuples are the invariant).
func TestInProcAndTCPReportSameNetworkTraffic(t *testing.T) {
	const q = "SELECT acct_id, sum(trade_volume) FROM trades GROUP BY acct_id"

	crossTuples := func(c *Cluster) (int64, int64) {
		t.Helper()
		scope := telemetry.NewScope("q-net")
		mem := telemetry.NewMemSink(telemetry.KindBlockSent)
		scope.Attach(mem)
		res, err := c.Exec(context.Background(), Request{SQL: q, Scope: scope})
		if err != nil {
			t.Fatal(err)
		}
		var tuples int64
		for _, ev := range mem.Events() {
			tuples += int64(ev.Rec.(telemetry.BlockSent).Tuples)
		}
		return tuples, res.Stats.NetworkBytes
	}

	cIn, _ := buildTestCluster(t, SP, 2)
	inTuples, inBytes := crossTuples(cIn)

	cTCP := buildTestClusterTCP(t, SP, 2)
	defer cTCP.Close()
	tcpTuples, tcpBytes := crossTuples(cTCP)

	if inTuples == 0 || tcpTuples == 0 {
		t.Fatalf("repartitioned agg across 2 nodes must move tuples (inproc=%d tcp=%d)",
			inTuples, tcpTuples)
	}
	if inBytes == 0 || tcpBytes == 0 {
		t.Fatalf("net bytes not accounted (inproc=%d tcp=%d)", inBytes, tcpBytes)
	}
	if inTuples != tcpTuples {
		t.Errorf("in-proc shipped %d cross-node tuples, TCP shipped %d", inTuples, tcpTuples)
	}
}

// buildTestClusterTCP is buildTestCluster over real loopback sockets:
// same schema, same seed, same data.
func buildTestClusterTCP(t *testing.T, mode Mode, nodes int) *Cluster {
	t.Helper()
	cat := catalog.New(nodes)
	trades := types.NewSchema(
		types.Col("acct_id", types.Int64),
		types.Col("sec_code", types.Int64),
		types.Col("trade_date", types.Date),
		types.Col("trade_volume", types.Float64),
	)
	cat.MustAdd(&catalog.Table{Name: "trades", Schema: trades, PartKey: []int{1}})
	secs := types.NewSchema(
		types.Col("acct_id", types.Int64),
		types.Col("sec_code", types.Int64),
		types.Col("entry_date", types.Date),
		types.Col("entry_volume", types.Float64),
	)
	cat.MustAdd(&catalog.Table{Name: "securities", Schema: secs, PartKey: []int{0}})
	c, err := NewClusterTCP(Config{
		Nodes: nodes, CoresPerNode: 2, Mode: mode,
		BlockSize: 2048, SchedTick: 5e6, ExchangeBuffer: 8,
	}, cat)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	day := types.MustParseDate("2010-10-30")
	tl, _ := c.NewTableLoader("trades")
	for i := 0; i < 8000; i++ {
		r := tl.Row()
		types.PutValue(r, trades, 0, types.IntVal(int64(rng.Intn(500))))
		types.PutValue(r, trades, 1, types.IntVal(int64(rng.Intn(50))))
		types.PutValue(r, trades, 2, types.DateVal(day-int64(rng.Intn(5))))
		types.PutValue(r, trades, 3, types.FloatVal(float64(rng.Intn(1000))))
		tl.Add()
	}
	tl.Close()
	sl, _ := c.NewTableLoader("securities")
	for i := 0; i < 2000; i++ {
		r := sl.Row()
		types.PutValue(r, secs, 0, types.IntVal(int64(rng.Intn(500))))
		types.PutValue(r, secs, 1, types.IntVal(int64(rng.Intn(50))))
		types.PutValue(r, secs, 2, types.DateVal(day-int64(rng.Intn(3))))
		types.PutValue(r, secs, 3, types.FloatVal(float64(rng.Intn(1000))))
		sl.Add()
	}
	sl.Close()
	return c
}

// TestCrossSubstrateEventKinds checks the real engine and the
// virtual-time simulator emit the same core event taxonomy for an
// analogous scan→aggregate plan, so analysis tooling reads either
// stream identically.
func TestCrossSubstrateEventKinds(t *testing.T) {
	// Engine side: EP-mode distributed aggregation.
	c, _ := buildTestCluster(t, EP, 2)
	scope := telemetry.NewScope("q-engine")
	engMem := telemetry.NewMemSink()
	scope.Attach(engMem)
	if _, err := c.Exec(context.Background(), Request{
		SQL: "SELECT acct_id, sum(trade_volume) FROM trades GROUP BY acct_id", Scope: scope}); err != nil {
		t.Fatal(err)
	}

	// Simulator side: scan feeding a blocking aggregation under EP.
	g := &sim.Graph{
		Groups: []*sim.SegGroup{
			{ID: 0, Name: "S1", OnAllNodes: true, Stages: []sim.Stage{{
				Name: "scan", SourceEdge: -1, LocalRows: 1e6,
				CostPerTuple: 25e-9, Selectivity: 0.02, OutEdge: 0,
			}}},
			{ID: 1, Name: "S2", OnAllNodes: true, Stages: []sim.Stage{{
				Name: "agg", SourceEdge: 0, CostPerTuple: 100e-9,
				Selectivity: 0.05, OutEdge: -1, ToResult: true, EmitAtEnd: true,
			}}},
		},
		Edges:          []*sim.Edge{{ID: 0, From: 0, To: 1, BytesPerTuple: 48}},
		TotalInputRows: 2e6,
	}
	s, err := sim.New(sim.Cluster{Nodes: 2, Cores: 2, Quantum: 2 * time.Millisecond},
		g, &sim.EPPolicy{Tick: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	simMem := telemetry.NewMemSink()
	s.Scope().Attach(simMem)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}

	kindsOf := func(m *telemetry.MemSink) map[telemetry.Kind]bool {
		out := map[telemetry.Kind]bool{}
		for _, ev := range m.Events() {
			out[ev.Rec.Kind()] = true
		}
		return out
	}
	eng, simK := kindsOf(engMem), kindsOf(simMem)
	for _, k := range []telemetry.Kind{
		telemetry.KindQueryPhase,
		telemetry.KindSegmentStageChange,
		telemetry.KindWorkerExpand,
	} {
		if !eng[k] {
			t.Errorf("engine stream missing %v", k)
		}
		if !simK[k] {
			t.Errorf("sim stream missing %v", k)
		}
	}
}
