// Package engine executes distributed plans on a real in-process
// cluster: k slave nodes plus a master, each slave holding one hash
// partition of every table, segments instantiated per node with elastic
// worker pools, exchanges wired over the network transport, and — in EP
// mode — a dynamic scheduler per node reprovisioning cores at runtime.
//
// Three execution modes reproduce the paper's Section 5.4 comparison:
//
//	EP — elastic pipelining (elastic iterators + dynamic scheduler)
//	SP — static pipelining (fixed parallelism chosen at plan time)
//	ME — materialized execution (stage-at-a-time, full intermediate
//	     result staging between segments)
package engine

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/catalog"
	"repro/internal/faults"
	"repro/internal/network"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/types"
)

// ErrClosed is returned by Exec (and its wrappers) after Cluster.Close:
// the fabric and cluster schedulers are torn down, so starting a query
// would race the shutdown.
var ErrClosed = errors.New("engine: cluster is closed")

// ErrMemoryBudget is returned (wrapped) when a query cannot be admitted
// because its estimated working memory does not fit the per-node
// budget right now. The condition is transient — resident queries
// release their reservations as they complete — so callers (the query
// server) retry with backoff rather than failing the query.
var ErrMemoryBudget = errors.New("engine: memory budget exhausted")

// Mode selects the execution strategy.
type Mode int

const (
	// EP is elastic pipelining, the paper's contribution.
	EP Mode = iota
	// SP is static pipelining with fixed parallelism.
	SP
	// ME is materialized execution.
	ME
)

var modeNames = [...]string{"EP", "SP", "ME"}

// String renders the mode; out-of-range values render as "Mode(n)"
// instead of panicking.
func (m Mode) String() string {
	if m < 0 || int(m) >= len(modeNames) {
		return fmt.Sprintf("Mode(%d)", int(m))
	}
	return modeNames[m]
}

// ParseMode is String's inverse, case-insensitive.
func ParseMode(s string) (Mode, error) {
	for m, name := range modeNames {
		if strings.EqualFold(s, name) {
			return Mode(m), nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q (want EP, SP or ME)", s)
}

// Config configures a cluster.
type Config struct {
	// Nodes is the number of slave nodes (data holders).
	Nodes int
	// CoresPerNode is m, the per-node core budget for the scheduler.
	CoresPerNode int
	// Mode selects EP / SP / ME.
	Mode Mode
	// FixedParallelism is the per-segment worker count in SP and ME
	// mode (default 1). EP does not read it: a segment there starts on
	// the cores its node has free.
	FixedParallelism int
	// SchedTick is the period of the EP scheduler's rounds (default
	// 20ms). The scheduler counts its freshness window θ in rounds, so
	// θ lasts five periods: 100ms at the default.
	SchedTick time.Duration
	// ExchangeBuffer bounds exchange inboxes in pipelined modes, in
	// blocks (default 128). ME mode always uses unbounded inboxes.
	ExchangeBuffer int
	// BlockSize is the storage block payload size (default 64 KB).
	BlockSize int
	// Faults injects faults into the cluster's fabric and worker pools.
	// Nil falls back to the process default (faults.Default()), which the
	// -faults CLI flag installs; use faults.New to attach a private
	// injector (tests schedule link severances and worker crashes on it).
	Faults *faults.Injector
	// Retry overrides the transports' retransmission policy (nil means
	// network.DefaultRetryPolicy); recovery tests shorten it.
	Retry *network.RetryPolicy
	// MemoryPerNode caps the tracked working memory (hash tables, sort
	// buffers, parked worker state) of all concurrent queries on one
	// node, in bytes (0 = unlimited). Admission prepays an estimate
	// against it; operators reserve as they grow, and refused
	// reservations walk the degradation ladder — stop expanding pools,
	// shrink pools, and only then spill partitions to disk.
	MemoryPerNode int64
	// SpillDir receives operator spill files (default os.TempDir()).
	SpillDir string
	// NodeLossGrace applies to distributed clusters (NewClusterDist):
	// when a distributed query fails with a transport symptom, it lingers
	// up to this long for the membership failure detector to attribute
	// the symptom to a node death, upgrading the error to the typed
	// NodeLostError. Set it a margin past the detector deadline;
	// 0 (default) returns the raw symptom immediately.
	NodeLossGrace time.Duration
	// PlanCacheSize bounds the cluster's LRU plan cache (normalized
	// SQL + catalog version -> compiled physical plan), consulted by
	// every statement compiled from text so repeated statements skip
	// parse+plan entirely (default 256). No product code sets it; it
	// stays a field only because benchmark/ reads it through Config().
	PlanCacheSize int
	// FastPath enables the serial fast-path executor for small
	// gather-only plans (point lookups): eligible queries run on the
	// calling goroutine without exchanges, elastic pools or samplers.
	// Off by default — results are identical but the execution
	// machinery (and its telemetry) is bypassed, so serving stacks opt
	// in explicitly.
	FastPath bool
}

func (c *Config) defaults() {
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.CoresPerNode <= 0 {
		c.CoresPerNode = 4
	}
	if c.FixedParallelism <= 0 {
		c.FixedParallelism = 1
	}
	if c.SchedTick <= 0 {
		c.SchedTick = 20 * time.Millisecond
	}
	if c.ExchangeBuffer <= 0 {
		c.ExchangeBuffer = 128
	}
	if c.BlockSize <= 0 {
		c.BlockSize = block.DefaultSize
	}
	if c.SpillDir == "" {
		c.SpillDir = os.TempDir()
	}
	if c.PlanCacheSize <= 0 {
		c.PlanCacheSize = 256
	}
}

// Cluster is an in-process cluster: data stores per slave node plus the
// exchange fabric. Create one, load tables, then Run queries — any
// number concurrently: exchanges are namespaced per query, and the
// cluster-resident schedulers plus the per-node core-lease pools
// arbitrate the shared core budget across all in-flight queries.
type Cluster struct {
	cfg    Config
	cat    *catalog.Catalog
	stores []*storage.Store
	fabric network.Fabric
	// faultInj is the resolved fault injector (Config.Faults or the
	// process default at construction time); nil when faults are off.
	faultInj *faults.Injector
	// tcpNodes holds the sockets of a TCP-backed cluster, for Close.
	tcpNodes map[int]*network.TCPNode
	// dist is the distributed-mode state (NewClusterDist): this process
	// is one data node of a multi-process cluster. Nil for the ordinary
	// all-in-one-process cluster.
	dist *distState

	// planCache holds compiled plans keyed on normalized SQL + catalog
	// version; shared by every execution entry point of the cluster.
	planCache *plan.Cache

	// allNodes lists the data nodes 0..Nodes-1: the shared, read-only
	// data-segment placement of every query that is not placed by a
	// distributed spec.
	allNodes []int

	// leases[n] is node n's core-slot pool (slaves 0..Nodes-1 plus the
	// master at index Nodes), shared by every concurrent query.
	leases []*coreLease
	// memBudgets[n] is node n's memory budget root: every query's
	// per-node account is a child, so the sum of tracked operator state
	// on a node is bounded by Config.MemoryPerNode. The node scheduler
	// reads its Pressure each tick to drive the degradation watermarks.
	memBudgets []*block.Tracker
	// scheds[n] is node n's resident dynamic scheduler (EP mode). One
	// scheduler per node for the whole cluster lifetime: execs Attach
	// their segment handles on start and Detach on completion, so
	// Algorithm 1 arbitrates cores between queries exactly as it does
	// between segments of one query.
	scheds []*sched.NodeScheduler
	bus    *sched.MasterBus

	// The scheduler tick loop is refcounted: it runs only while at
	// least one EP query is in flight, so idle clusters (and the many
	// tests that never call Close) hold no background goroutine.
	schedMu   sync.Mutex
	schedRef  int
	schedStop chan struct{}
	schedDone chan struct{}
	// activeEP holds the scopes of in-flight EP queries; each tick's
	// measured overhead is charged to every active query's
	// sched.overhead_ns counter (the tick serves them all).
	activeEP map[*telemetry.Scope]struct{}

	closed atomic.Bool
}

// initShared builds the query-independent shared state: core-lease
// pools and resident schedulers for every node including the master.
func (c *Cluster) initShared() {
	c.planCache = plan.NewCache(c.cfg.PlanCacheSize)
	c.bus = sched.NewMasterBus()
	c.activeEP = make(map[*telemetry.Scope]struct{})
	c.allNodes = make([]int, c.cfg.Nodes)
	for i := range c.allNodes {
		c.allNodes[i] = i
	}
	for i := 0; i <= c.cfg.Nodes; i++ {
		mb := block.NewBudget(fmt.Sprintf("node%d", i), c.cfg.MemoryPerNode)
		c.memBudgets = append(c.memBudgets, mb)
		c.leases = append(c.leases, newCoreLease(c.cfg.CoresPerNode))
		c.scheds = append(c.scheds, sched.NewNodeScheduler(i, sched.Config{
			Cores:       c.cfg.CoresPerNode,
			MemPressure: mb.Pressure,
		}, c.bus))
	}
}

// NodeMemory returns a node's tracked query working memory: the bytes
// currently charged, the high-water mark, and the configured budget
// (0 = unlimited). Node ids 0..Nodes-1 are slaves; Nodes is the master.
func (c *Cluster) NodeMemory(node int) (cur, peak, limit int64) {
	mb := c.memBudgets[node]
	return mb.Current(), mb.Peak(), mb.Limit()
}

// memPressureHigh reports whether a node is above the expansion
// watermark. Elective pool expansions are refused there — the first,
// cheapest rung of the degradation ladder — at the resident
// scheduler's own default, so neither path can grow a pool into a node
// that is about to spill.
func (c *Cluster) memPressureHigh(node int) bool {
	return c.memBudgets[node].Pressure() >= sched.DefaultMemHighWater
}

// resolveFaults picks the cluster's injector: an explicit Config.Faults
// wins, otherwise the process default installed by the -faults flag.
func (c *Config) resolveFaults() *faults.Injector {
	if c.Faults != nil {
		return c.Faults
	}
	return faults.Default()
}

// NewCluster creates a cluster with empty stores over the in-process
// exchange fabric.
func NewCluster(cfg Config, cat *catalog.Catalog) *Cluster {
	cfg.defaults()
	inj := cfg.resolveFaults()
	fabric := network.NewInProc()
	fabric.Faults, fabric.Retry = inj, cfg.Retry
	c := &Cluster{cfg: cfg, cat: cat, faultInj: inj, fabric: fabric}
	for i := 0; i < cfg.Nodes; i++ {
		c.stores = append(c.stores, new(storage.Store))
	}
	c.initShared()
	return c
}

// NewClusterTCP creates a cluster whose exchanges run over real TCP
// sockets on loopback — one listener per node including the master —
// so every repartitioned block passes through the wire codec. Close the
// cluster to release the sockets.
func NewClusterTCP(cfg Config, cat *catalog.Catalog) (*Cluster, error) {
	cfg.defaults()
	inj := cfg.resolveFaults()
	nodes := make(map[int]*network.TCPNode)
	peers := make(map[int]string)
	for i := 0; i <= cfg.Nodes; i++ { // slaves + master
		n, err := network.NewTCPNode(i, "127.0.0.1:0", peers)
		if err != nil {
			for _, prev := range nodes {
				prev.Close()
			}
			return nil, err
		}
		n.SetFaults(inj)
		if cfg.Retry != nil {
			n.SetRetryPolicy(*cfg.Retry)
		}
		nodes[i] = n
		peers[i] = n.Addr()
	}
	// Every node now knows every address: register the full peer set so
	// the connection pools pre-dial here, off the query path, instead of
	// paying the first dial on the hot send path.
	for _, n := range nodes {
		for pid, paddr := range peers {
			n.SetPeer(pid, paddr)
		}
	}
	c := &Cluster{cfg: cfg, cat: cat, faultInj: inj,
		fabric:   network.NewTCPFabric(nodes),
		tcpNodes: nodes,
	}
	for i := 0; i < cfg.Nodes; i++ {
		c.stores = append(c.stores, new(storage.Store))
	}
	c.initShared()
	return c, nil
}

// Close shuts the cluster down: subsequent Exec calls fail with
// ErrClosed, the resident scheduler loop (if running) is stopped, and a
// TCP-backed cluster's sockets are released. Closing twice is a no-op.
func (c *Cluster) Close() {
	if c.closed.Swap(true) {
		return
	}
	c.schedMu.Lock()
	stop, done := c.schedStop, c.schedDone
	c.schedStop, c.schedDone = nil, nil
	c.schedMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	for _, n := range c.tcpNodes {
		n.Close()
	}
}

// UsedCores returns the number of leased core slots on a node — the
// workers holding a real core, across every in-flight query. It never
// exceeds Config.CoresPerNode by construction.
func (c *Cluster) UsedCores(node int) int { return c.leases[node].Used() }

// OversubscribedCores returns the node's outstanding core overdraft:
// mandatory workers (a segment's first, or SP/ME fixed parallelism)
// started beyond the core budget, explicitly accounted instead of
// silently double-booked.
func (c *Cluster) OversubscribedCores(node int) int {
	return c.leases[node].Oversubscribed()
}

// attachEP registers an EP query with the resident schedulers: every
// segment instance's adapter attaches to its node's scheduler, and the
// shared tick loop starts if this is the first in-flight EP query.
func (c *Cluster) attachEP(e *exec, adapters []*segAdapter) {
	for _, a := range adapters {
		c.scheds[a.inst.node].Attach(a)
	}
	c.schedMu.Lock()
	defer c.schedMu.Unlock()
	c.activeEP[e.scope] = struct{}{}
	c.schedRef++
	if c.schedRef == 1 && !c.closed.Load() {
		c.schedStop = make(chan struct{})
		c.schedDone = make(chan struct{})
		go c.schedLoop(c.schedStop, c.schedDone)
	}
}

// detachEP unregisters a completing EP query and stops the tick loop
// when no EP query remains in flight.
func (c *Cluster) detachEP(e *exec, adapters []*segAdapter) {
	for _, a := range adapters {
		c.scheds[a.inst.node].Detach(a)
	}
	c.schedMu.Lock()
	delete(c.activeEP, e.scope)
	c.schedRef--
	var stop, done chan struct{}
	if c.schedRef == 0 {
		stop, done = c.schedStop, c.schedDone
		c.schedStop, c.schedDone = nil, nil
	}
	c.schedMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// schedLoop drives every node's resident scheduler until the last EP
// query detaches (Table 5's "scheduling overhead" row measures the time
// spent inside Tick).
func (c *Cluster) schedLoop(stop, done chan struct{}) {
	defer close(done)
	tick := time.NewTicker(c.cfg.SchedTick)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			t0 := time.Now()
			for _, ns := range c.scheds {
				ns.Tick()
			}
			elapsed := time.Since(t0).Nanoseconds()
			c.schedMu.Lock()
			for sc := range c.activeEP {
				sc.Counter(telemetry.CtrSchedOverheadNs).Add(elapsed)
			}
			c.schedMu.Unlock()
		}
	}
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Catalog returns the cluster catalog.
func (c *Cluster) Catalog() *catalog.Catalog { return c.cat }

// master returns the master node id (one past the slaves).
func (c *Cluster) master() int { return c.cfg.Nodes }

// TableLoader routes rows to slave nodes by the table's hash partition
// key, the distribution scheme of Section 5.1.
type TableLoader struct {
	table   *catalog.Table
	loaders []*storage.Loader
	key     []types.Value // the partition-key values of the row in scratch
	scratch []byte
	rows    int64
}

// NewTableLoader prepares loading for a registered table.
func (c *Cluster) NewTableLoader(name string) (*TableLoader, error) {
	tbl, err := c.cat.Lookup(name)
	if err != nil {
		return nil, err
	}
	tl := &TableLoader{
		table:   tbl,
		key:     make([]types.Value, len(tbl.PartKey)),
		scratch: make([]byte, tbl.Schema.Stride()),
	}
	// In distributed mode only the local node's store exists; the other
	// slots stay nil so the hash routing below still sees the full
	// cluster width and rows bound for remote partitions are dropped
	// locally (each process generates the full dataset deterministically
	// and keeps its own slice).
	for _, st := range c.stores {
		if st == nil {
			tl.loaders = append(tl.loaders, nil)
			continue
		}
		p := st.CreatePartition(name, tbl.Schema)
		tl.loaders = append(tl.loaders, storage.NewLoader(p, c.cfg.BlockSize))
	}
	return tl, nil
}

// Row returns a scratch record to fill; commit it with Add.
func (l *TableLoader) Row() []byte { return l.scratch }

// Add routes the filled scratch record to the node ownerOf names for its
// partition key: where a Sender on the same key routes it, so a side
// left where it was loaded meets a side repartitioned onto it, and where
// a scan pinned to the key looks for it. The row count
// advances even when the destination partition lives in another process
// (nil loader): table statistics must reflect the CLUSTER-WIDE row
// count on every process, or the per-process plan compilations of one
// distributed query would diverge.
func (l *TableLoader) Add() {
	node := 0
	if len(l.loaders) > 1 {
		for i, idx := range l.table.PartKey {
			l.key[i] = types.GetValue(l.scratch, l.table.Schema, idx)
		}
		node = ownerOf(l.key, len(l.loaders))
	}
	if ld := l.loaders[node]; ld != nil {
		ld.Append(l.scratch)
	}
	l.rows++
}

// Close seals all partitions and refreshes the table row statistics.
func (l *TableLoader) Close() {
	for _, ld := range l.loaders {
		if ld != nil {
			ld.Close()
		}
	}
	l.table.Stats.Rows = l.rows
}

// Result is a completed query's output.
type Result struct {
	Names  []string
	Schema *types.Schema
	Blocks []*block.Block
	Stats  ExecStats
	// Scope is the query's telemetry stream: the counters, gauges and
	// events Stats was derived from. To observe the live stream, pass
	// your own as Request.Scope with sinks attached. Nil only for an
	// untracked fast-path query (no caller scope, no process registry).
	Scope *telemetry.Scope
	// Analysis is the measured plan of a Request.Analyze run; nil
	// otherwise, and on a distributed participant.
	Analysis *Analysis
	// Snapshot is an analyzed distributed participant's serialized
	// scope, to be shipped to the coordinator's DeliverStats; nil
	// otherwise.
	Snapshot *telemetry.ScopeSnapshot
}

// NumRows returns the result cardinality.
func (r *Result) NumRows() int {
	n := 0
	for _, b := range r.Blocks {
		n += b.NumTuples()
	}
	return n
}

// Rows materializes the result as value rows, for display and tests.
func (r *Result) Rows() [][]types.Value {
	var out [][]types.Value
	for _, b := range r.Blocks {
		for i := 0; i < b.NumTuples(); i++ {
			row := make([]types.Value, r.Schema.NumCols())
			for c := range row {
				row[c] = b.Get(i, c)
			}
			out = append(out, row)
		}
	}
	return out
}

// ExecStats reports measured execution characteristics. It is a view
// computed from the query's telemetry scope (Result.Scope): duration
// from the scope clock, network traffic from the shared net.bytes
// counter, memory from the mem.bytes gauge peak, scheduling overhead
// from the sched.overhead_ns counter, and the trace from
// ParallelismSample events.
type ExecStats struct {
	// Duration is the wall-clock query response time.
	Duration time.Duration
	// PeakMemoryBytes is the high-water mark of materialized state:
	// exchange staging plus hash-table arenas across all nodes.
	PeakMemoryBytes int64
	// NetworkBytes counts bytes that crossed the emulated NICs.
	NetworkBytes int64
	// SchedOverhead is the cumulative time spent inside scheduler ticks.
	SchedOverhead time.Duration
	// Trace samples per-segment parallelism over time (EP mode).
	Trace []TraceSample
}

// TraceSample is one point of the parallelism timeline (Figure 10).
type TraceSample struct {
	At          time.Duration
	Parallelism map[string]int // segment name → workers (node 0 instance)
}

func (c *Cluster) store(node int) *storage.Store { return c.stores[node] }

func (c *Cluster) String() string {
	return fmt.Sprintf("cluster{nodes: %d, cores: %d, mode: %s}",
		c.cfg.Nodes, c.cfg.CoresPerNode, c.cfg.Mode)
}
