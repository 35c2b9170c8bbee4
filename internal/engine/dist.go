package engine

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/network"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// ErrNodeLost is the sentinel matched by errors.Is when a distributed
// query failed because a participating node died (crashed, was killed,
// or was partitioned away) mid-flight. The concrete error in the chain
// is *NodeLostError, which names the node.
var ErrNodeLost = errors.New("engine: node lost")

// NodeLostError is the typed failure of a distributed query whose
// participant died mid-flight. It is the authoritative verdict from the
// membership plane's failure detector, and it overrides whatever
// transport-level symptom (reset connection, aborted exchange, send
// deadline) the dataflow happened to trip on first.
type NodeLostError struct {
	// Node is the data-node id the failure detector declared dead.
	Node int
}

func (e *NodeLostError) Error() string {
	return fmt.Sprintf("engine: node %d lost mid-query", e.Node)
}

// Unwrap makes errors.Is(err, ErrNodeLost) match.
func (e *NodeLostError) Unwrap() error { return ErrNodeLost }

// ExecSpec is the control-plane description of one distributed query:
// what to run, under which cluster-unique id, who coordinates (hosting
// the master segments and collecting the result), and which data nodes
// participate. The coordinator builds one and broadcasts it verbatim;
// every process named in it — the coordinator included — runs
// Exec(Request{Dist: &spec}). Because plan compilation is deterministic
// over slices (never map iteration) and every process agreed on the
// catalog at join time, all participants derive the identical plan —
// same segment ids, same exchange ids — and each instantiates only the
// segment instances placed on its own node.
type ExecSpec struct {
	// QID is the cluster-unique query id (from the coordinator's
	// NextQueryID); it namespaces every exchange of the dataflow.
	QID int
	// SQL is the query text, compiled independently (through its own
	// plan cache) by each participant.
	SQL string
	// Coordinator is the data-node id of the coordinating process. It
	// doubles as the query's master node: master-resident segments and
	// the result collector live there, so a per-cluster master process
	// is not needed and any node can coordinate.
	Coordinator int
	// DataNodes are the participating data nodes in ascending order —
	// the alive subset of the full partition map at submission time.
	// Partitions of dead nodes are not scanned (degraded coverage until
	// the node rejoins); the list must be identical on every
	// participant, as it determines exchange instance indexing.
	DataNodes []int
	// Analyze requests the cluster-wide observability plane: every
	// participant runs its fragment span-enabled with per-operator
	// instrumentation and ships a serialized scope snapshot back to the
	// coordinator at fragment end (Result.Snapshot → control plane →
	// DeliverStats), so the coordinator's EXPLAIN ANALYZE and Chrome
	// trace describe all nodes, not just its own.
	Analyze bool
	// TraceID is the coordinator-chosen trace-context id propagated to
	// every participant; snapshots echo it so the control plane can
	// correlate them with the originating query across processes.
	TraceID string
}

// places reports whether the spec puts anything on the given node: it
// coordinates, or runs data segments.
func (s *ExecSpec) places(node int) bool {
	if node == s.Coordinator {
		return true
	}
	for _, n := range s.DataNodes {
		if n == node {
			return true
		}
	}
	return false
}

// distState is the extra state of a distributed-mode cluster: one
// process among several, owning one data node's partition of every
// table and exchanging blocks with its peers over the wire.
type distState struct {
	local int              // this process's data node id
	node  *network.TCPNode // its transport endpoint

	mu       sync.Mutex
	inflight map[int]*exec // qid → running query (this process's side)
	lost     map[int]bool  // node id → declared dead and not yet back

	// statsMu guards the per-query snapshot channels participants'
	// shipped telemetry arrives on. Channels are created by whichever
	// side touches a qid first (delivery can race the coordinator's
	// collection), so no registration ordering is required; statsOrder
	// bounds the map against stray deliveries for dead coordinators.
	statsMu    sync.Mutex
	stats      map[int]chan *telemetry.ScopeSnapshot
	statsOrder []int
}

// maxStatsPerQuery bounds one query's snapshot channel; a cluster never
// has more participants than nodes, and excess deliveries are dropped
// rather than blocking the control plane.
const maxStatsPerQuery = 64

// maxStatsQueries bounds the number of per-query snapshot channels kept
// at once; the oldest is evicted so stray deliveries (a coordinator that
// died before collecting) cannot grow the map forever.
const maxStatsQueries = 128

// statsCh returns the query's snapshot channel, creating it on first
// touch from either side.
func (d *distState) statsCh(qid int) chan *telemetry.ScopeSnapshot {
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	if d.stats == nil {
		d.stats = make(map[int]chan *telemetry.ScopeSnapshot)
	}
	ch, ok := d.stats[qid]
	if !ok {
		ch = make(chan *telemetry.ScopeSnapshot, maxStatsPerQuery)
		d.stats[qid] = ch
		d.statsOrder = append(d.statsOrder, qid)
		if len(d.statsOrder) > maxStatsQueries {
			evict := d.statsOrder[0]
			d.statsOrder = d.statsOrder[1:]
			delete(d.stats, evict)
		}
	}
	return ch
}

// dropStats releases a query's snapshot channel after collection.
func (d *distState) dropStats(qid int) {
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	delete(d.stats, qid)
	for i, id := range d.statsOrder {
		if id == qid {
			d.statsOrder = append(d.statsOrder[:i], d.statsOrder[i+1:]...)
			break
		}
	}
}

// NewClusterDist creates one process's slice of a multi-process
// cluster: cfg.Nodes data nodes exist cluster-wide, but only node's id
// is backed by a local store — the other entries stay nil and their
// partitions live in peer processes. The transport node's peer table is
// expected to be maintained by the membership plane (SetPeer on join,
// DropPeer on death); the cluster closes the node on Close.
//
// There is no dedicated master process: each query's coordinator hosts
// its master segments and result collector (ExecSpec.Coordinator).
func NewClusterDist(cfg Config, cat *catalog.Catalog, node *network.TCPNode) (*Cluster, error) {
	cfg.defaults()
	if node.ID() < 0 || node.ID() >= cfg.Nodes {
		return nil, fmt.Errorf("engine: dist node id %d outside [0,%d)", node.ID(), cfg.Nodes)
	}
	inj := cfg.resolveFaults()
	node.SetFaults(inj)
	// The processes start a query without a rendezvous, so a producer's
	// first frames can reach a peer that has not registered its inboxes
	// yet; the peer drops them unacknowledged, and retransmission brings
	// them back.
	if cfg.Retry != nil {
		node.SetRetryPolicy(*cfg.Retry)
	}
	hosted := map[int]*network.TCPNode{node.ID(): node}
	c := &Cluster{
		cfg: cfg, cat: cat, faultInj: inj,
		fabric:   network.NewTCPFabric(hosted),
		tcpNodes: hosted,
		dist: &distState{
			local:    node.ID(),
			node:     node,
			inflight: make(map[int]*exec),
			lost:     make(map[int]bool),
		},
	}
	c.stores = make([]*storage.Store, cfg.Nodes)
	c.stores[node.ID()] = new(storage.Store)
	c.initShared()
	return c, nil
}

// NextQueryID allocates a query id for a new coordinated query. In
// distributed mode ids must be unique across every process that can
// coordinate, so the low byte carries the local node id (+1, so a
// distributed id is never mistaken for a pre-dist plain sequence
// number) under a per-process sequence.
func (c *Cluster) NextQueryID() int {
	seq := querySeq.Add(1)
	if c.dist == nil {
		return int(seq)
	}
	return int(seq%(1<<21))<<8 | (c.dist.local + 1)
}

// participant reports whether this process runs the query as a
// distributed participant: placed by a spec that names another node as
// coordinator.
func (e *exec) participant() bool {
	return e.spec != nil && e.spec.Coordinator != e.c.dist.local
}

// snapshot serializes an analyzed participant's fragment — counters
// (its share of every exchange's traffic among them), gauges with
// peaks, histograms, spans stamped with this node's id — for the
// control plane to ship back to the coordinator (DeliverStats on the
// coordinating process).
func (az *analyzeState) snapshot(e *exec) *telemetry.ScopeSnapshot {
	snap := e.scope.Snapshot(e.local)
	snap.TraceID = e.spec.TraceID
	snap.AddSpans(az.spans.Events())
	return snap
}

// DeliverStats hands a participant's shipped snapshot to the
// coordinator-side collector — the control plane calls it on the
// coordinating process when a /stats request arrives. Reports whether
// the snapshot was accepted (a full or evicted channel drops it; the
// analysis then renders without that node rather than blocking).
func (c *Cluster) DeliverStats(qid int, snap *telemetry.ScopeSnapshot) bool {
	if c.dist == nil || snap == nil {
		return false
	}
	select {
	case c.dist.statsCh(qid) <- snap:
		return true
	default:
		return false
	}
}

// statsWait is how long an analyzed coordinated query waits for
// participants' telemetry snapshots (shipped over the control plane at
// fragment end) before rendering the analysis from whatever arrived.
// Participants finish no later than the coordinator's own dataflow, so
// the wait only covers the control-plane hop.
const statsWait = 2 * time.Second

// gatherDistStats completes an analyzed distributed query's telemetry:
// snapshot the coordinator's own scope first (pre-merge, so the local
// share is attributable), then wait up to statsWait for every
// remote participant's shipped snapshot, merging each into the query
// scope (counters add, gauge peaks accumulate, histograms fold) and
// replaying its spans shifted onto the coordinator's timeline. The
// per-node snapshots land in the analyzeState for skew and per-node
// rendering. Missing snapshots (slow control plane, dropped delivery)
// degrade the analysis to the nodes that reported, never fail the query.
func (e *exec) gatherDistStats(az *analyzeState) {
	perNode := []*telemetry.ScopeSnapshot{e.scope.Snapshot(e.local)}
	expected := 0
	for _, n := range e.dataNodes {
		if n != e.local {
			expected++
		}
	}
	if expected > 0 {
		ch := e.c.dist.statsCh(e.qid)
		deadline := time.NewTimer(statsWait)
		defer deadline.Stop()
	collect:
		for len(perNode)-1 < expected {
			select {
			case snap := <-ch:
				perNode = append(perNode, snap)
			case <-deadline.C:
				break collect
			}
		}
	}
	e.c.dist.dropStats(e.qid)
	for _, snap := range perNode[1:] {
		e.scope.MergeSnapshot(snap)
		e.scope.ReplaySpans(snap)
	}
	az.perNode = perNode
}

// NodeLost is the membership plane's death notification: the failure
// detector declared node dead. Every in-flight query that node
// participates in is torn down with the typed NodeLostError — which
// overrides any transport symptom the teardown races with — and the
// node's address is dropped from the transport so new dataflows fail
// fast instead of dialing a corpse. The node stays on the lost list
// until NodeRestored, closing the race where a query registers between
// the death and its own first send.
func (c *Cluster) NodeLost(node int) {
	if c.dist == nil || node == c.dist.local {
		return
	}
	d := c.dist
	d.mu.Lock()
	d.lost[node] = true
	var victims []*exec
	for _, e := range d.inflight {
		if e.spec.places(node) {
			victims = append(victims, e)
		}
	}
	d.mu.Unlock()
	d.node.DropPeer(node)
	for _, e := range victims {
		e.failWithNodeLost(node)
	}
}

// NodeRestored is the membership plane's rejoin notification: the node
// is alive again at addr (possibly a fresh ephemeral port), re-admitted
// to the transport's peer table and cleared from the lost list so new
// queries may fan out to it.
func (c *Cluster) NodeRestored(node int, addr string) {
	if c.dist == nil || node == c.dist.local {
		return
	}
	d := c.dist
	d.mu.Lock()
	delete(d.lost, node)
	d.mu.Unlock()
	d.node.SetPeer(node, addr)
}

// FailQuery aborts one in-flight distributed query by id — the /abort
// control-plane path, used by a coordinator to tear down participant
// sides after its own side failed. Reports whether the query was found.
func (c *Cluster) FailQuery(qid int, err error) bool {
	if c.dist == nil {
		return false
	}
	c.dist.mu.Lock()
	e := c.dist.inflight[qid]
	c.dist.mu.Unlock()
	if e == nil {
		return false
	}
	e.fail(err)
	return true
}

// OpenExchanges reports the transport-layer exchange registrations
// still live in this process — inboxes, stream reassembly state, abort
// markers. A quiesced cluster must report zero: every query's deferred
// Release drops its registrations, and leaks here are what the
// clustertest harness's teardown assertions catch.
func (c *Cluster) OpenExchanges() int {
	n := 0
	for _, tn := range c.tcpNodes {
		n += tn.OpenExchanges()
	}
	return n
}

// register enrolls a fully-wired exec in the inflight table, unless one
// of its participants is already on the lost list — then the query
// fails immediately with the same typed error a mid-flight death would
// produce, closing the window between a death notification and this
// query's registration.
func (d *distState) register(e *exec) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, n := range e.dataNodes {
		if d.lost[n] {
			return &NodeLostError{Node: n}
		}
	}
	if d.lost[e.master] {
		return &NodeLostError{Node: e.master}
	}
	d.inflight[e.qid] = e
	return nil
}

func (d *distState) unregister(qid int) {
	d.mu.Lock()
	delete(d.inflight, qid)
	d.mu.Unlock()
}

// failWithNodeLost tears the query down under the failure detector's
// verdict. Unlike ordinary fail() — first error wins — the NodeLost
// verdict OVERRIDES a previously recorded error: when a peer dies, the
// dataflow usually trips on a transport symptom (reset connection,
// aborted exchange) a beat before the detector's deadline fires, and
// surfacing the symptom would hide the cause. The first NodeLost
// verdict sticks.
func (e *exec) failWithNodeLost(node int) {
	nl := &NodeLostError{Node: node}
	e.fail(nl) // no-op if teardown already ran
	e.failMu.Lock()
	if _, already := e.failErr.(*NodeLostError); !already {
		e.failErr = nl
	}
	e.failMu.Unlock()
}

// resolveDistError post-processes a distributed query's failure. If the
// error is already the detector's verdict it is final. Otherwise the
// query lingers up to the configured grace, giving the failure detector
// time to attribute a transport symptom to a node death — the detector
// deadline is typically a few hundred milliseconds behind the first
// connection reset when a process is killed outright. Without a grace
// (the default) the symptom error returns as-is.
func (e *exec) resolveDistError(err error) error {
	if errors.Is(err, ErrNodeLost) {
		return e.err()
	}
	grace := e.c.cfg.NodeLossGrace
	if grace <= 0 {
		return err
	}
	deadline := time.Now().Add(grace)
	for {
		if cur := e.err(); cur != nil && errors.Is(cur, ErrNodeLost) {
			return cur
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
}
