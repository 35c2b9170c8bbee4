// Command claims-node runs one process of a multi-process claims
// cluster. Each process owns one data node's partition of every table,
// joins the cluster through a seed's membership plane, and serves SQL
// over a small HTTP control plane; the exchange fabric between
// processes is the TCP block wire protocol (internal/network).
//
// Run a 3-node cluster on one machine (node 0 is the seed):
//
//	claims-node -id 0 -nodes 3 -ctl 127.0.0.1:7200 &
//	claims-node -id 1 -seed 127.0.0.1:7200 &
//	claims-node -id 2 -seed 127.0.0.1:7200 &
//
// Every flag defaults to an ephemeral port; each process prints one
// machine-parseable line once it is serving:
//
//	CLAIMS_NODE_READY id=1 addr=127.0.0.1:40213 ctl=127.0.0.1:40215
//
// and answers POST /query {"sql": "..."} on its control address. Any
// node can coordinate: the receiver compiles the statement, fans an
// ExecSpec out to the alive members of the current view, and streams
// the distributed result back as JSON. Kill -9 a process mid-query and
// the survivors' failure detector declares it dead within the
// configured deadline; the in-flight query fails with a typed node-lost
// verdict ("node_lost" in the reply names the victim), and a restarted
// process re-joins under a new incarnation and serves again.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/catalog"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sql"
	"repro/internal/sse"
	"repro/internal/telemetry"
)

func main() {
	var (
		id     = flag.Int("id", 0, "this node's data-node id")
		listen = flag.String("listen", "127.0.0.1:0", "data-plane (exchange) listen address; :0 binds an ephemeral port")
		ctl    = flag.String("ctl", "127.0.0.1:0", "control-plane HTTP listen address (SQL, membership, /metrics, /debug/pprof)")
		seed   = flag.String("seed", "", "seed's control-plane host:port; empty makes this process the seed")

		// Seed-only cluster parameters: joiners adopt them at join time.
		nodes    = flag.Int("nodes", 3, "(seed) cluster width: number of data nodes / hash partitions")
		workload = flag.String("workload", "sse", "(seed) dataset generator: sse")
		rows     = flag.Int("rows", 100_000, "(seed) rows per table")
		genSeed  = flag.Int64("gen-seed", 7, "(seed) deterministic generator seed")
		hb       = flag.Duration("hb", 0, "(seed) heartbeat period (0 = 250ms default)")
		suspect  = flag.Duration("suspect-after", 0, "(seed) silence before a node turns suspect (0 = 3 heartbeats)")
		deadAfr  = flag.Duration("dead-after", 0, "(seed) silence before a node is declared dead (0 = 2x suspect)")

		cores     = flag.Int("cores", 4, "per-node core budget for the scheduler")
		mode      = flag.String("mode", "EP", "execution mode: EP | SP | ME")
		faultSpec = flag.String("faults", "", "fault injection spec, e.g. delay=5ms:p0.1 (see internal/faults)")
		slowlogMS = flag.Int("slowlog-ms", -1, "log queries slower than this to stderr as JSONL (0 logs all, -1 disables)")
	)
	flag.Parse()

	if *faultSpec != "" {
		fc, err := faults.Parse(*faultSpec)
		if err != nil {
			log.Fatalf("bad -faults: %v", err)
		}
		faults.SetDefault(faults.New(fc))
		log.Printf("fault injection on: %s", fc.String())
	}

	m, err := engine.ParseMode(*mode)
	if err != nil {
		log.Fatal(err)
	}

	reg := telemetry.NewRegistry(true)
	telemetry.SetDefaultRegistry(reg)
	if *slowlogMS >= 0 {
		reg.SetSlowLog(time.Duration(*slowlogMS)*time.Millisecond, os.Stderr)
	}

	runClusterNode(clusterNodeConfig{
		id: *id, listen: *listen, ctl: *ctl, seed: *seed,
		nodes: *nodes, workload: *workload, rows: *rows, genSeed: *genSeed,
		timing: cluster.Timing{HeartbeatEvery: *hb, SuspectAfter: *suspect, DeadAfter: *deadAfr},
		cores:  *cores, mode: m, reg: reg,
	})
}

// clusterNodeConfig carries the parsed flags into runClusterNode.
type clusterNodeConfig struct {
	id       int
	listen   string
	ctl      string
	seed     string
	nodes    int
	workload string
	rows     int
	genSeed  int64
	timing   cluster.Timing
	cores    int
	mode     engine.Mode
	reg      *telemetry.Registry
}

// runClusterNode is the membership-joined node: bind both planes, join
// (or host) the seed registry, load this node's partitions, then serve
// until signalled.
func runClusterNode(nc clusterNodeConfig) {
	node, err := network.NewTCPNode(nc.id, nc.listen, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()
	// Self-sends (a local producer feeding a local consumer instance)
	// go through the same transport, so the node is its own peer.
	node.SetPeer(nc.id, node.Addr())

	srv, err := obs.Serve(nc.ctl, nc.reg)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// Membership events flow into a process-lifetime telemetry scope,
	// retained in memory and served at /cluster/events.
	clusterScope := telemetry.NewScope(fmt.Sprintf("node%d-cluster", nc.id))
	events := telemetry.NewMemSink(telemetry.KindMembershipChange)
	clusterScope.Attach(events)
	srv.Handle("/cluster/events", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(events.Events()) //nolint:errcheck // client gone
	}))

	seedAddr := nc.seed
	if seedAddr == "" {
		// This process hosts the registry; it still joins through it like
		// everyone else, so the seed is also data node nc.id.
		spec := cluster.CatalogSpec{
			Workload: nc.workload, Rows: nc.rows, Seed: nc.genSeed, DataNodes: nc.nodes,
		}
		registry := cluster.NewRegistry(spec, nc.timing)
		registry.OnChange = func(n int, from, to cluster.State, inc int) {
			log.Printf("membership: node %d %s -> %s (incarnation %d)", n, from, to, inc)
			clusterScope.Emit(telemetry.MembershipChange{
				Node: n, From: from.String(), To: to.String(), Incarnation: inc,
			})
		}
		srv.Handle("/cluster/", registry.Handler())
		// Metrics federation: the seed re-exports every alive member's
		// observability surface under one scrape. The specific patterns
		// win over the membership plane's /cluster/ prefix above.
		fedTargets := func() map[int]string {
			targets := map[int]string{}
			for _, m := range registry.View().Members {
				if m.State == cluster.StateAlive && m.Ctl != "" {
					targets[m.ID] = m.Ctl
				}
			}
			return targets
		}
		srv.Handle("/cluster/metrics", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := obs.FederateMetrics(w, fedTargets(), nil); err != nil {
				log.Printf("federate metrics: %v", err)
			}
		}))
		srv.Handle("/cluster/queries", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := obs.FederateQueries(w, fedTargets(), nil); err != nil {
				log.Printf("federate queries: %v", err)
			}
		}))
		stopTick := registry.StartTicker(nil)
		defer stopTick()
		seedAddr = srv.Addr()
		log.Printf("seeding cluster: %d nodes, workload %s, %d rows/table, detector %v/%v/%v",
			spec.DataNodes, spec.Workload, spec.Rows,
			registry.Timing().HeartbeatEvery, registry.Timing().SuspectAfter, registry.Timing().DeadAfter)
	}

	cs := &ctlServer{selfID: nc.id, ctlAddr: srv.Addr(), client: &http.Client{Timeout: 10 * time.Second}}
	srv.Handle("/query", http.HandlerFunc(cs.handleQuery))
	srv.Handle("/exec", http.HandlerFunc(cs.handleExec))
	srv.Handle("/abort", http.HandlerFunc(cs.handleAbort))
	srv.Handle("/stats", http.HandlerFunc(cs.handleStats))

	agent := cluster.NewAgent(cluster.AgentConfig{
		ID: nc.id, Addr: node.Addr(), Ctl: srv.Addr(), Seed: seedAddr,
		OnNodeDead: func(nid int) {
			log.Printf("membership: node %d is dead", nid)
			if c, _ := cs.get(); c != nil {
				c.NodeLost(nid)
			}
		},
		OnNodeAlive: func(nid int, m cluster.Member) {
			log.Printf("membership: node %d alive at %s (incarnation %d)", nid, m.Addr, m.Incarnation)
			if c, _ := cs.get(); c != nil {
				c.NodeRestored(nid, m.Addr)
			} else {
				// Engine not built yet (we are still joining): record the
				// peer address directly on the transport.
				node.SetPeer(nid, m.Addr)
			}
		},
		Logf: log.Printf,
	})
	srv.OnMetrics(func(w obs.MetricWriter) { membershipMetrics(w, agent.View()) })
	// /view is this node's own membership opinion (the agent's last
	// polled view), as opposed to the seed's authoritative
	// /cluster/view; coordination decisions are taken against it, so
	// harnesses wait on it before fanning queries out.
	srv.Handle("/view", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSONStatus(w, http.StatusOK, agent.View())
	}))

	joinCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	spec, err := agent.Join(joinCtx)
	cancel()
	if err != nil {
		log.Fatalf("join %s: %v", seedAddr, err)
	}

	cat := catalog.New(spec.DataNodes)
	switch spec.Workload {
	case "sse", "":
		sse.RegisterTables(cat, int64(spec.Rows))
	default:
		log.Fatalf("cluster spec names unknown workload %q", spec.Workload)
	}

	timing := agent.Timing()
	cfg := engine.Config{
		Nodes:         spec.DataNodes,
		CoresPerNode:  nc.cores,
		Mode:          nc.mode,
		NodeLossGrace: timing.DeadAfter + 4*timing.HeartbeatEvery + 500*time.Millisecond,
	}
	c, err := engine.NewClusterDist(cfg, cat, node)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	if err := sse.Load(c, sse.GenConfig{Rows: spec.Rows, Seed: spec.Seed}); err != nil {
		log.Fatalf("load partitions: %v", err)
	}

	cs.set(c, agent)
	if err := agent.Ready(); err != nil {
		log.Fatalf("ready: %v", err)
	}
	agent.Start()
	defer agent.Stop()

	// The machine-parseable liveness line the clustertest harness (and
	// any script) scrapes for the ephemeral addresses. Everything needed
	// to serve a query is wired before it prints.
	fmt.Printf("CLAIMS_NODE_READY id=%d addr=%s ctl=%s\n", nc.id, node.Addr(), srv.Addr())
	log.Printf("node %d serving: data %s, ctl http://%s (POST /query)", nc.id, node.Addr(), srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("node %d shutting down", nc.id)
}

// membershipMetrics exports the agent's current view on /metrics.
func membershipMetrics(w obs.MetricWriter, v cluster.View) {
	w.Family("claims_cluster_view_version", "Membership view version last observed by this node.", "gauge")
	w.Sample("claims_cluster_view_version", nil, float64(v.Version))
	w.Family("claims_cluster_member_state", "Member liveness per node: 0 joining, 1 alive, 2 suspect, 3 dead.", "gauge")
	w.Family("claims_cluster_member_incarnation", "Join count per node id.", "counter")
	for _, m := range v.Members {
		lbl := [][2]string{{"node", strconv.Itoa(m.ID)}}
		w.Sample("claims_cluster_member_state", lbl, float64(m.State))
		w.Sample("claims_cluster_member_incarnation", lbl, float64(m.Incarnation))
	}
}

// ctlServer is the node's SQL control plane: /query accepts a
// statement and coordinates it, /exec runs a participant's share of a
// peer-coordinated query, /abort tears a query down on request. The
// engine arrives only after join+load, so every handler fails 503
// until set is called.
type ctlServer struct {
	selfID  int
	ctlAddr string
	client  *http.Client

	mu    sync.RWMutex
	c     *engine.Cluster
	agent *cluster.Agent
}

func (s *ctlServer) set(c *engine.Cluster, a *cluster.Agent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.c, s.agent = c, a
}

func (s *ctlServer) get() (*engine.Cluster, *cluster.Agent) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.c, s.agent
}

// queryRequest is the body of POST /query.
type queryRequest struct {
	SQL string `json:"sql"`
}

// queryResponse is the /query reply. NodeLost is -1 unless the query
// failed because a participant died, in which case it names the victim.
// Analysis carries the rendered EXPLAIN [ANALYZE] plan — for analyzed
// queries, annotated with merged cluster-wide measurements and the
// per-node operator breakdown; PerNode is the same breakdown in
// machine-readable form.
type queryResponse struct {
	Columns     []string                  `json:"columns,omitempty"`
	Rows        [][]string                `json:"rows,omitempty"`
	RowCount    int                       `json:"row_count"`
	DurationMS  float64                   `json:"duration_ms"`
	Coordinator int                       `json:"coordinator"`
	DataNodes   []int                     `json:"data_nodes"`
	Analysis    string                    `json:"analysis,omitempty"`
	PerNode     []telemetry.NodeBreakdown `json:"per_node,omitempty"`
	Error       string                    `json:"error,omitempty"`
	NodeLost    int                       `json:"node_lost"`
}

// execRequest is the coordinator→participant fan-out body (POST /exec):
// engine.ExecSpec plus the coordinator's control address for aborts and
// (for analyzed queries) stats shipping.
type execRequest struct {
	QID            int    `json:"qid"`
	SQL            string `json:"sql"`
	Coordinator    int    `json:"coordinator"`
	CoordinatorCtl string `json:"coordinator_ctl"`
	DataNodes      []int  `json:"data_nodes"`
	Analyze        bool   `json:"analyze,omitempty"`
	TraceID        string `json:"trace_id,omitempty"`
}

// statsRequest is the participant→coordinator stats return (POST
// /stats): the participant's serialized telemetry scope for one
// analyzed query, merged into the coordinator's EXPLAIN ANALYZE.
type statsRequest struct {
	QID      int                      `json:"qid"`
	Snapshot *telemetry.ScopeSnapshot `json:"snapshot"`
}

// abortRequest is the body of POST /abort.
type abortRequest struct {
	QID    int    `json:"qid"`
	Reason string `json:"reason"`
}

func (s *ctlServer) handleQuery(w http.ResponseWriter, r *http.Request) {
	c, agent := s.get()
	if c == nil {
		http.Error(w, "node is still joining the cluster", http.StatusServiceUnavailable)
		return
	}
	var req queryRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	view := agent.View()
	alive := view.Alive()
	if !containsInt(alive, s.selfID) {
		http.Error(w, fmt.Sprintf("node %d is not alive in view v%d", s.selfID, view.Version),
			http.StatusServiceUnavailable)
		return
	}
	stmt, explain, analyze := sql.StripExplain(strings.TrimSuffix(strings.TrimSpace(req.SQL), ";"))
	if explain && !analyze {
		// Plan only — nothing executes, so no fan-out.
		p, _, err := c.CompileCached(stmt)
		if err != nil {
			writeJSONStatus(w, http.StatusBadRequest,
				queryResponse{Coordinator: s.selfID, NodeLost: -1, Error: err.Error()})
			return
		}
		writeJSONStatus(w, http.StatusOK, queryResponse{
			Coordinator: s.selfID, DataNodes: alive, NodeLost: -1, Analysis: p.String(),
		})
		return
	}
	spec := engine.ExecSpec{
		QID: c.NextQueryID(), SQL: stmt, Coordinator: s.selfID, DataNodes: alive,
		Analyze: analyze,
	}
	if analyze {
		spec.TraceID = fmt.Sprintf("q%d@node%d", spec.QID, s.selfID)
	}
	for _, nid := range alive {
		if nid == s.selfID {
			continue
		}
		m, ok := view.Member(nid)
		if !ok {
			continue
		}
		go func(ctl string) {
			if err := s.postJSON(ctl, "/exec", execRequest{
				QID: spec.QID, SQL: spec.SQL, Coordinator: spec.Coordinator,
				CoordinatorCtl: s.ctlAddr, DataNodes: spec.DataNodes,
				Analyze: spec.Analyze, TraceID: spec.TraceID,
			}); err != nil {
				// The participant's absence surfaces as NodeLost through
				// the detector; nothing to do here but note it.
				log.Printf("qid %d: exec fan-out to %s failed: %v", spec.QID, ctl, err)
			}
		}(m.Ctl)
	}

	start := time.Now()
	res, err := c.Exec(r.Context(), engine.Request{Dist: &spec})
	resp := queryResponse{Coordinator: s.selfID, DataNodes: alive, NodeLost: -1,
		DurationMS: float64(time.Since(start)) / float64(time.Millisecond)}
	if err != nil {
		resp.Error = err.Error()
		var nl *engine.NodeLostError
		if errors.As(err, &nl) {
			resp.NodeLost = nl.Node
		}
		// Release the participants' halves of the dataflow.
		for _, nid := range alive {
			if nid == s.selfID {
				continue
			}
			if m, ok := view.Member(nid); ok {
				go s.postJSON(m.Ctl, "/abort", abortRequest{QID: spec.QID, Reason: err.Error()}) //nolint:errcheck
			}
		}
		writeJSONStatus(w, http.StatusInternalServerError, resp)
		return
	}
	if an := res.Analysis; an != nil {
		resp.Analysis = an.Render()
		resp.PerNode = an.NodeBreakdowns()
	}
	resp.Columns = res.Names
	resp.RowCount = res.NumRows()
	for _, row := range res.Rows() {
		out := make([]string, len(row))
		for j, v := range row {
			out[j] = v.String()
		}
		resp.Rows = append(resp.Rows, out)
	}
	writeJSONStatus(w, http.StatusOK, resp)
}

func (s *ctlServer) handleExec(w http.ResponseWriter, r *http.Request) {
	c, _ := s.get()
	if c == nil {
		http.Error(w, "node is still joining the cluster", http.StatusServiceUnavailable)
		return
	}
	var req execRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	go func() {
		spec := engine.ExecSpec{
			QID: req.QID, SQL: req.SQL, Coordinator: req.Coordinator, DataNodes: req.DataNodes,
			Analyze: req.Analyze, TraceID: req.TraceID,
		}
		res, err := c.Exec(context.Background(), engine.Request{Dist: &spec})
		if err == nil && res.Snapshot != nil && req.CoordinatorCtl != "" {
			// The fragment ran instrumented (an analyzed query): ship the
			// scope snapshot back so the coordinator's EXPLAIN ANALYZE
			// covers this node.
			if perr := s.postJSON(req.CoordinatorCtl, "/stats",
				statsRequest{QID: req.QID, Snapshot: res.Snapshot}); perr != nil {
				log.Printf("qid %d: stats return to %s failed: %v", req.QID, req.CoordinatorCtl, perr)
			}
		}
		if err != nil && !errors.Is(err, engine.ErrNodeLost) {
			// A local failure the coordinator cannot see (compile error,
			// worker crash): push an abort so it does not hang.
			log.Printf("qid %d: participant failed: %v", req.QID, err)
			if req.CoordinatorCtl != "" {
				s.postJSON(req.CoordinatorCtl, "/abort", //nolint:errcheck
					abortRequest{QID: req.QID, Reason: err.Error()})
			}
		}
	}()
	w.WriteHeader(http.StatusAccepted)
}

// handleStats accepts a participant's serialized telemetry scope for an
// analyzed query this node coordinates and hands it to the engine's
// stats channel; the coordinator's gather phase blocks on these (up to
// its stats wait) before rendering the merged analysis.
func (s *ctlServer) handleStats(w http.ResponseWriter, r *http.Request) {
	c, _ := s.get()
	if c == nil {
		http.Error(w, "node is still joining the cluster", http.StatusServiceUnavailable)
		return
	}
	var req statsRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Snapshot == nil {
		http.Error(w, "no snapshot in body", http.StatusBadRequest)
		return
	}
	writeJSONStatus(w, http.StatusOK,
		map[string]bool{"accepted": c.DeliverStats(req.QID, req.Snapshot)})
}

func (s *ctlServer) handleAbort(w http.ResponseWriter, r *http.Request) {
	c, _ := s.get()
	if c == nil {
		http.Error(w, "node is still joining the cluster", http.StatusServiceUnavailable)
		return
	}
	var req abortRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	found := c.FailQuery(req.QID, fmt.Errorf("aborted by peer: %s", req.Reason))
	writeJSONStatus(w, http.StatusOK, map[string]bool{"found": found})
}

func (s *ctlServer) postJSON(hostport, path string, body any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := s.client.Post("http://"+hostport+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20)) //nolint:errcheck
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s%s: status %d", hostport, path, resp.StatusCode)
	}
	return nil
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone
}

func containsInt(v []int, x int) bool {
	for _, n := range v {
		if n == x {
			return true
		}
	}
	return false
}
