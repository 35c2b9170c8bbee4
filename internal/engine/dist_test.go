package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/network"
	"repro/internal/plan"
	"repro/internal/types"
)

// buildDistCluster creates one "process" of an nNodes-wide distributed
// cluster: a TCPNode on an ephemeral port and a Cluster owning data
// node id only. Every process loads the full deterministic dataset and
// keeps its own hash slice, exactly like the real claims-node binary.
func buildDistCluster(t *testing.T, id, nNodes int, cfg Config) *Cluster {
	t.Helper()
	node, err := network.NewTCPNode(id, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New(nNodes)
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

	cfg.Nodes = nNodes
	c, err := NewClusterDist(cfg, cat, node)
	if err != nil {
		node.Close()
		t.Fatal(err)
	}
	loadDistData(t, c, trades, secs)
	return c
}

// loadDistData loads the deterministic test dataset; every process (and
// the single-process reference cluster) generates the identical row
// stream, so partitions agree across processes and table statistics —
// which drive plan compilation — are cluster-wide totals everywhere.
func loadDistData(t *testing.T, c *Cluster, trades, secs *types.Schema) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	day := types.MustParseDate("2010-10-30")
	tl, err := c.NewTableLoader("trades")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6000; i++ {
		r := tl.Row()
		types.PutValue(r, trades, 0, types.IntVal(int64(rng.Intn(400))))
		types.PutValue(r, trades, 1, types.IntVal(int64(rng.Intn(50))))
		types.PutValue(r, trades, 2, types.DateVal(day-int64(rng.Intn(5))))
		types.PutValue(r, trades, 3, types.FloatVal(float64(rng.Intn(1000))))
		tl.Add()
	}
	tl.Close()
	sl, err := c.NewTableLoader("securities")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		r := sl.Row()
		types.PutValue(r, secs, 0, types.IntVal(int64(rng.Intn(400))))
		types.PutValue(r, secs, 1, types.IntVal(int64(rng.Intn(50))))
		types.PutValue(r, secs, 2, types.DateVal(day-int64(rng.Intn(3))))
		types.PutValue(r, secs, 3, types.FloatVal(float64(rng.Intn(1000))))
		sl.Add()
	}
	sl.Close()
}

// meshDist wires every cluster's transport with every bound address —
// the SetPeer pushes the membership plane performs on view changes.
func meshDist(clusters []*Cluster) {
	for _, c := range clusters {
		for _, peer := range clusters {
			pn := peer.dist.node
			c.dist.node.SetPeer(pn.ID(), pn.Addr())
		}
	}
}

// runDistQuery fans one query out over all clusters: cluster[coord]
// coordinates, the rest participate, like the claims-node /exec
// broadcast. Returns the coordinator's result/error and the first
// participant error.
func runDistQuery(clusters []*Cluster, coord int, sql string) (*Result, error, error) {
	dataNodes := make([]int, len(clusters))
	for i := range dataNodes {
		dataNodes[i] = i
	}
	spec := ExecSpec{
		QID: clusters[coord].NextQueryID(), SQL: sql,
		Coordinator: coord, DataNodes: dataNodes,
	}
	var wg sync.WaitGroup
	var partErr error
	var partMu sync.Mutex
	for i, c := range clusters {
		if i == coord {
			continue
		}
		wg.Add(1)
		go func(c *Cluster) {
			defer wg.Done()
			if _, err := c.Exec(context.Background(), Request{Dist: &spec}); err != nil {
				partMu.Lock()
				if partErr == nil {
					partErr = err
				}
				partMu.Unlock()
			}
		}(c)
	}
	res, err := clusters[coord].Exec(context.Background(), Request{Dist: &spec})
	wg.Wait()
	return res, err, partErr
}

// sortedRows renders a result into sorted strings for order-free
// comparison.
func sortedRows(res *Result) []string {
	var out []string
	for _, row := range res.Rows() {
		s := ""
		for _, v := range row {
			s += fmt.Sprintf("%v|", v)
		}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// TestDistQueryMatchesSingleProcess runs repartitioning queries across
// three dist clusters (three would-be processes exchanging blocks over
// real sockets, each holding one partition) and asserts the results
// match the same data on a classic single-process cluster, for every
// coordinator choice.
func TestDistQueryMatchesSingleProcess(t *testing.T) {
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

	queries := []string{
		`SELECT acct_id, sum(trade_volume) FROM trades GROUP BY acct_id`,
		`SELECT count(*) FROM trades T, securities S
		 WHERE T.trade_date = '2010-10-30' AND S.acct_id = T.acct_id`,
	}
	for qi, sql := range queries {
		want, err := refC.Run(sql)
		if err != nil {
			t.Fatalf("query %d reference: %v", qi, err)
		}
		for coord := 0; coord < nNodes; coord++ {
			res, err, perr := runDistQuery(clusters, coord, sql)
			if err != nil {
				t.Fatalf("query %d coord %d: coordinator: %v", qi, coord, err)
			}
			if perr != nil {
				t.Fatalf("query %d coord %d: participant: %v", qi, coord, perr)
			}
			if got, exp := sortedRows(res), sortedRows(want); !equalStrings(got, exp) {
				t.Fatalf("query %d coord %d: distributed result diverges: %d rows vs %d",
					qi, coord, len(got), len(exp))
			}
		}
	}
	for i, c := range clusters {
		if n := c.OpenExchanges(); n != 0 {
			t.Fatalf("cluster %d: %d exchange registrations leaked", i, n)
		}
	}
}

// TestDistLateParticipant starts one participant well after the rest of
// a default-config (Retry nil) dist cluster has begun a repartitioning
// query, so its peers' first frames arrive before it has registered its
// inboxes and are dropped. The processes have no rendezvous, so this
// ordering is ordinary; NewClusterDist runs the reliable protocol for
// that reason, and the query must complete with the full result.
func TestDistLateParticipant(t *testing.T) {
	const nNodes, coord, late = 3, 0, 2
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
	want, err := refC.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	spec := ExecSpec{
		QID: clusters[coord].NextQueryID(), SQL: sql,
		Coordinator: coord, DataNodes: []int{0, 1, 2},
	}
	partErrs := make(chan error, nNodes)
	for i, c := range clusters {
		if i == coord {
			continue
		}
		go func(i int, c *Cluster) {
			if i == late {
				time.Sleep(150 * time.Millisecond)
			}
			_, err := c.Exec(context.Background(), Request{Dist: &spec})
			partErrs <- err
		}(i, c)
	}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := clusters[coord].Exec(context.Background(), Request{Dist: &spec})
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("coordinator: %v", o.err)
		}
		if got, exp := sortedRows(o.res), sortedRows(want); !equalStrings(got, exp) {
			t.Fatalf("result diverges: %d rows vs %d", len(got), len(exp))
		}
	case <-time.After(20 * time.Second):
		t.Fatal("query hung: frames sent before the late participant registered its inboxes were lost")
	}
	for i := 0; i < nNodes-1; i++ {
		if err := <-partErrs; err != nil {
			t.Fatalf("participant: %v", err)
		}
	}
}

// buildDistReference is the all-in-one-process control group: same
// catalog, same deterministic dataset, classic execution.
func buildDistReference(t *testing.T, nNodes int) *Cluster {
	t.Helper()
	cat := catalog.New(nNodes)
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
	c := NewCluster(Config{Nodes: nNodes, CoresPerNode: 2, BlockSize: 2048, ExchangeBuffer: 8}, cat)
	loadDistData(t, c, trades, secs)
	return c
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDistNodeLostMidQuery severs a whole node mid-query and asserts
// the typed verdict surfaces everywhere, with no goroutine or exchange
// leaks — the engine-level contract behind the clustertest harness's
// kill -9 scenario. The victim node never executes its share (it "died"
// as the query fanned out), so the dataflow deterministically blocks on
// its missing streams: survivors' consumers wait for EOFs that will
// never come, and their senders retry into the void under the reliable
// protocol. Only the failure detector's NodeLost verdict can end the
// query, which is exactly the claim under test.
func TestDistNodeLostMidQuery(t *testing.T) {
	before := runtime.NumGoroutine()

	const nNodes, victim, coord = 3, 2, 0
	retry := network.DefaultRetryPolicy
	retry.Deadline = 20 * time.Second
	cfg := Config{CoresPerNode: 2, BlockSize: 2048, ExchangeBuffer: 4, Retry: &retry}
	var clusters []*Cluster
	for i := 0; i < nNodes; i++ {
		clusters = append(clusters, buildDistCluster(t, i, nNodes, cfg))
	}
	meshDist(clusters)

	dataNodes := []int{0, 1, 2}
	spec := ExecSpec{
		QID:         clusters[coord].NextQueryID(),
		SQL:         `SELECT acct_id, sum(trade_volume) FROM trades GROUP BY acct_id`,
		Coordinator: coord, DataNodes: dataNodes,
	}

	type outcome struct {
		who string
		err error
	}
	results := make(chan outcome, 2)
	go func() {
		_, err := clusters[coord].Exec(context.Background(), Request{Dist: &spec})
		results <- outcome{"coordinator", err}
	}()
	go func() {
		_, err := clusters[1].Exec(context.Background(), Request{Dist: &spec})
		results <- outcome{"participant", err}
	}()

	// Let the survivors wire up and block on the victim's silence, then
	// deliver the failure detector's verdict: the victim's process dies
	// (its socket closes) and the membership plane notifies the
	// survivors, as the cluster Agent's OnNodeDead callback does.
	time.Sleep(150 * time.Millisecond)
	clusters[victim].Close()
	for _, i := range []int{coord, 1} {
		clusters[i].NodeLost(victim)
	}

	for i := 0; i < 2; i++ {
		select {
		case oc := <-results:
			if !errors.Is(oc.err, ErrNodeLost) {
				t.Fatalf("%s: got %v, want ErrNodeLost", oc.who, oc.err)
			}
			var nl *NodeLostError
			if !errors.As(oc.err, &nl) || nl.Node != victim {
				t.Fatalf("%s: error %v does not name the victim node %d", oc.who, oc.err, victim)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("query did not fail after NodeLost")
		}
	}

	// Queries launched after the death fail immediately — the lost list
	// closes the notification/registration race.
	if _, err := clusters[coord].Exec(context.Background(), Request{Dist: &ExecSpec{
		QID: clusters[coord].NextQueryID(), SQL: spec.SQL,
		Coordinator: coord, DataNodes: dataNodes,
	}}); !errors.Is(err, ErrNodeLost) {
		t.Fatalf("post-death query: got %v, want ErrNodeLost", err)
	}

	// A restored node is served again: re-admit the victim's id at a
	// fresh address (rebuilt store, as a restarted process would have).
	revived := buildDistCluster(t, victim, nNodes, cfg)
	clusters[victim] = revived
	meshDist(clusters)
	for _, i := range []int{coord, 1} {
		clusters[i].NodeRestored(victim, revived.dist.node.Addr())
	}
	res, cerr, perr := runDistQuery(clusters, coord, spec.SQL)
	if cerr != nil || perr != nil {
		t.Fatalf("query after rejoin: coordinator %v, participant %v", cerr, perr)
	}
	if res.NumRows() == 0 {
		t.Fatal("query after rejoin returned no rows")
	}

	// Teardown left nothing behind: every FabricExchange.Release ran on
	// the live nodes, and no worker, sender or reader goroutine outlived
	// its query.
	for _, i := range []int{coord, 1, victim} {
		if n := clusters[i].OpenExchanges(); n != 0 {
			t.Fatalf("cluster %d: %d exchange registrations leaked", i, n)
		}
	}
	for _, c := range clusters {
		c.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, after, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestDistRepeatedStatementHitsPlanCache: distributed runs compile
// through the same front half as every other request, so the second
// coordinated run of one text parses and plans nowhere — a plan-cache
// hit on the coordinator and on each participant.
func TestDistRepeatedStatementHitsPlanCache(t *testing.T) {
	const nNodes, coord = 3, 0
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

	const sql = `SELECT acct_id, sum(trade_volume) FROM trades GROUP BY acct_id`
	var rows [2]int
	for round := 0; round < 2; round++ {
		before := make([]plan.CacheStats, nNodes)
		for i, c := range clusters {
			before[i] = c.PlanCacheStats()
		}
		res, err, perr := runDistQuery(clusters, coord, sql)
		if err != nil || perr != nil {
			t.Fatalf("round %d: coordinator %v, participant %v", round, err, perr)
		}
		rows[round] = res.NumRows()
		for i, c := range clusters {
			after := c.PlanCacheStats()
			hits, misses := after.Hits-before[i].Hits, after.Misses-before[i].Misses
			if wantHits := int64(round); hits != wantHits || misses != 1-wantHits {
				t.Errorf("round %d, node %d: plan cache hits +%d misses +%d, want +%d/+%d",
					round, i, hits, misses, wantHits, 1-wantHits)
			}
		}
	}
	if rows[0] == 0 || rows[0] != rows[1] {
		t.Fatalf("cached-plan run returned %d rows, first run %d", rows[1], rows[0])
	}
}
