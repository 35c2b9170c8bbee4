package engine

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/plan"
	"repro/internal/telemetry"
)

// runDistAnalyzed fans one analyzed query out over all clusters:
// participants run their fragments and deliver their snapshots to
// the coordinator (as the claims-node control plane does over /stats),
// while the coordinator runs its own — every side the same Exec.
func runDistAnalyzed(t *testing.T, clusters []*Cluster, coord int, sql string) (*Result, *Analysis) {
	t.Helper()
	dataNodes := make([]int, len(clusters))
	for i := range dataNodes {
		dataNodes[i] = i
	}
	spec := ExecSpec{
		QID: clusters[coord].NextQueryID(), SQL: sql,
		Coordinator: coord, DataNodes: dataNodes,
		Analyze: true, TraceID: "trace-test",
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(clusters))
	for i, c := range clusters {
		if i == coord {
			continue
		}
		wg.Add(1)
		go func(c *Cluster) {
			defer wg.Done()
			pres, err := c.Exec(context.Background(), Request{Dist: &spec})
			if err != nil {
				errs <- err
				return
			}
			if !clusters[coord].DeliverStats(spec.QID, pres.Snapshot) {
				t.Errorf("node %d: snapshot delivery refused", pres.Snapshot.Node)
			}
		}(c)
	}
	res, err := clusters[coord].Exec(context.Background(), Request{Dist: &spec})
	wg.Wait()
	close(errs)
	for perr := range errs {
		t.Fatalf("participant: %v", perr)
	}
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	return res, res.Analysis
}

// TestDistAnalyzeMergesPerNodeStats is the serialize→merge round-trip
// contract: an analyzed distributed query's merged coordinator counters
// must equal the sum of the per-node scope snapshots, and both must
// match the single-process reference fingerprints for the same
// deterministic dataset.
func TestDistAnalyzeMergesPerNodeStats(t *testing.T) {
	const nNodes = 3
	cfg := Config{CoresPerNode: 2, BlockSize: 2048, ExchangeBuffer: 8}
	var clusters []*Cluster
	for i := 0; i < nNodes; i++ {
		clusters = append(clusters, buildDistCluster(t, i, nNodes, cfg))
	}
	defer func() {
		for _, c := range clusters {
			c.Close()
		}
	}()
	meshDist(clusters)

	refC := buildDistReference(t, nNodes)
	defer refC.Close()

	sql := `SELECT acct_id, sum(trade_volume) FROM trades GROUP BY acct_id`
	refRes, refAn, err := analyze(refC, sql)
	if err != nil {
		t.Fatalf("reference analyze: %v", err)
	}

	res, an := runDistAnalyzed(t, clusters, 0, sql)
	if got, want := sortedRows(res), sortedRows(refRes); !equalStrings(got, want) {
		t.Fatalf("analyzed distributed result diverges: %d rows vs %d", len(got), len(want))
	}

	perNode := an.PerNode()
	if len(perNode) != nNodes {
		nodes := make([]int, 0, len(perNode))
		for _, s := range perNode {
			nodes = append(nodes, s.Node)
		}
		t.Fatalf("per-node snapshots from %v, want all %d nodes", nodes, nNodes)
	}
	for _, snap := range perNode[1:] {
		if snap.TraceID != "trace-test" {
			t.Fatalf("node %d snapshot trace id %q, want %q", snap.Node, snap.TraceID, "trace-test")
		}
	}

	// Merged coordinator counters == sum of per-node snapshots == the
	// single-process fingerprint, for every instrumented operator.
	for _, seg := range an.Plan.Segments {
		plan.Walk(seg.Root, func(op plan.PhysOp) {
			id, ok := an.OpID(op)
			if !ok {
				return
			}
			name := telemetry.OpCtr(id, telemetry.OpRows)
			merged := an.Scope.Counter(name).Load()
			var sum int64
			for _, snap := range perNode {
				sum += snap.Counter(name)
			}
			if merged != sum {
				t.Errorf("op %d: merged rows %d != per-node sum %d", id, merged, sum)
			}
			// Plan compilation is deterministic, so op ids agree between the
			// reference plan and the distributed one; compare fingerprints by
			// id through each run's scope (the reference Analysis keys its
			// op map by its own plan's node pointers).
			refRows := refAn.Scope.Counter(name).Load()
			mRows, _, _ := an.OpStats(op)
			if mRows != refRows {
				t.Errorf("op %d: distributed rows %d != single-process %d", id, mRows, refRows)
			}
			// Every scanning node contributed: the dataset hashes onto all
			// three partitions, so per-node scan rows must each be non-zero
			// and sum to the fingerprint.
			if _, isScan := op.(*plan.PScan); isScan {
				for _, snap := range perNode {
					rows, _, _, ok := an.NodeOpStats(op, snap.Node)
					if !ok || rows == 0 {
						t.Errorf("op %d: node %d reported no scan rows (ok=%v)", id, snap.Node, ok)
					}
				}
			}
		})
	}

	// Cross-node traffic attribution: the network counter merged across
	// nodes equals the sum of per-node shares.
	var netSum int64
	for _, snap := range perNode {
		netSum += snap.Counter(telemetry.CtrNetBytes)
	}
	if merged := an.Scope.Counter(telemetry.CtrNetBytes).Load(); merged != netSum {
		t.Errorf("merged net.bytes %d != per-node sum %d", merged, netSum)
	}

	// The rendered analysis carries the per-node section the cluster
	// observability plane exists for.
	rendered := an.Render()
	if !strings.Contains(rendered, "per-node:") {
		t.Fatalf("render missing per-node section:\n%s", rendered)
	}
	for _, want := range []string{"node0 rows=", "node1 rows=", "node2 rows="} {
		if !strings.Contains(rendered, want) {
			t.Fatalf("render missing %q:\n%s", want, rendered)
		}
	}

	for i, c := range clusters {
		if n := c.OpenExchanges(); n != 0 {
			t.Fatalf("cluster %d: %d exchange registrations leaked", i, n)
		}
	}
}

// TestDistAnalyzeSpansCoverAllNodes asserts the coordinator's captured
// span stream — after remote replay — contains spans attributed to
// every participant, so one Chrome trace renders the whole cluster.
func TestDistAnalyzeSpansCoverAllNodes(t *testing.T) {
	const nNodes = 3
	cfg := Config{CoresPerNode: 2, BlockSize: 2048, ExchangeBuffer: 8}
	var clusters []*Cluster
	for i := 0; i < nNodes; i++ {
		clusters = append(clusters, buildDistCluster(t, i, nNodes, cfg))
	}
	defer func() {
		for _, c := range clusters {
			c.Close()
		}
	}()
	meshDist(clusters)

	// Capture the coordinator's span stream like the query registry does.
	sc := telemetry.NewScope("dist-obs")
	sc.EnableSpans()
	sink := telemetry.NewMemSink(telemetry.KindSpan)
	sc.Attach(sink)

	dataNodes := []int{0, 1, 2}
	spec := ExecSpec{
		QID:         clusters[0].NextQueryID(),
		SQL:         `SELECT count(*) FROM trades`,
		Coordinator: 0, DataNodes: dataNodes, Analyze: true,
	}
	var wg sync.WaitGroup
	for i := 1; i < nNodes; i++ {
		wg.Add(1)
		go func(c *Cluster) {
			defer wg.Done()
			pres, err := c.Exec(context.Background(), Request{Dist: &spec})
			if err != nil {
				t.Errorf("participant: %v", err)
				return
			}
			// The fragment's own top-level span ships with the rest.
			hasQuery := false
			for _, se := range pres.Snapshot.Spans {
				hasQuery = hasQuery || se.Name == "query"
			}
			if !hasQuery {
				t.Errorf("node %d: snapshot has no query span", pres.Snapshot.Node)
			}
			clusters[0].DeliverStats(spec.QID, pres.Snapshot)
		}(clusters[i])
	}
	_, err := clusters[0].Exec(context.Background(), Request{Dist: &spec, Scope: sc})
	wg.Wait()
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}

	nodesSeen := map[int]bool{}
	for _, ev := range sink.Events() {
		se := ev.Rec.(telemetry.SpanEnd)
		if se.Node >= 0 {
			nodesSeen[se.Node] = true
		}
		if se.Start < 0 {
			t.Fatalf("span %q has negative start %v", se.Name, se.Start)
		}
	}
	for n := 0; n < nNodes; n++ {
		if !nodesSeen[n] {
			t.Fatalf("no spans attributed to node %d (saw %v)", n, nodesSeen)
		}
	}
}
