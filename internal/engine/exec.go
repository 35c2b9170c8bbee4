package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/elastic"
	"repro/internal/expr"
	"repro/internal/iterator"
	"repro/internal/network"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/types"
)

// querySeq hands out process-unique query ids. Every fabric exchange is
// keyed by (query id, exchange id), so the dataflows of concurrent
// queries on one cluster — or several clusters in one process — can
// never cross.
var querySeq atomic.Int64

// Request is one statement handed to Cluster.Exec: what to run (SQL, or
// a compiled Plan, with Args), how to observe it (Scope, Analyze), and —
// on a multi-process cluster — where (Dist). Every way of executing a
// query is a Request; EP, SP and ME, the serial fast path and the
// coordinator/participant split are driver and placement choices Exec
// makes from the request, the plan and the cluster.
type Request struct {
	// SQL is the statement text. With Plan nil it is compiled through
	// the plan cache (CompileCached); with Plan set it only labels the
	// query in the process registry and the slow-query log.
	SQL string
	// Plan, when set, is executed instead of compiling SQL — the
	// prepared-statement path, where a session pinned the (possibly
	// parameterized, always shared and never mutated) template.
	Plan *plan.Plan
	// Args are the values of the plan's $n slots ($1 is Args[0]), one
	// per slot. They are converted to the slots' kinds (plan.CoerceArgs)
	// and substituted as constants into each expression at the moment an
	// iterator is built from it; the plan is never copied, and Args is
	// not written to.
	Args []types.Value
	// Scope receives the query's telemetry; attach sinks to it before
	// the call to observe the live stream. Nil gives the query a scope
	// of its own (Result.Scope).
	Scope *telemetry.Scope
	// Analyze turns per-operator instrumentation on and returns the
	// measured plan as Result.Analysis (EXPLAIN ANALYZE).
	Analyze bool
	// Dist places the query explicitly across the processes of a
	// multi-process cluster (NewClusterDist); required there, rejected
	// elsewhere. The spec is the unit every participant must agree on,
	// so its SQL and Analyze are what runs. This process coordinates —
	// hosts the master segments and returns the rows — when
	// Dist.Coordinator == LocalNode(), and otherwise runs its share as a
	// participant and returns no rows (an analyzed participant's
	// Result.Snapshot carries its telemetry for the control plane to
	// ship to the coordinator's DeliverStats).
	Dist *ExecSpec
}

// Exec executes one request. Cancelling ctx (or its deadline expiring)
// routes into the query's fail-fast teardown, aborting every exchange
// so no worker stays wedged, and the call returns the context's error.
func (c *Cluster) Exec(ctx context.Context, r Request) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if (r.Dist != nil) != (c.dist != nil) {
		return nil, fmt.Errorf("engine: Request.Dist is required on a distributed cluster and only there")
	}
	if r.Dist != nil {
		if !r.Dist.places(c.dist.local) {
			return nil, fmt.Errorf("engine: spec (coordinator %d, data nodes %v) places nothing on node %d",
				r.Dist.Coordinator, r.Dist.DataNodes, c.dist.local)
		}
		r.SQL, r.Analyze = r.Dist.SQL, r.Dist.Analyze
	}
	tmpl, cacheState := r.Plan, ""
	if tmpl == nil {
		p, hit, err := c.CompileCached(r.SQL)
		if err != nil {
			return nil, err
		}
		tmpl, cacheState = p, "miss"
		if hit {
			cacheState = "hit"
		}
	}
	args, err := tmpl.CoerceArgs(r.Args)
	if err != nil {
		return nil, err
	}
	return c.run(ctx, tmpl, args, &r, cacheState)
}

// Run compiles (through the plan cache) and executes a SQL query.
func (c *Cluster) Run(query string) (*Result, error) {
	return c.Exec(context.Background(), Request{SQL: query})
}

// run takes a plan and the coerced values of its slots through the
// stages every query shares — begin → place → admit → wire → drive →
// collect — under the driver the plan and the cluster select: the
// serial one for fast-path eligible plans (no exchanges to wire, nothing
// to admit), else the pipelined (EP, SP) or materialized (ME) parallel
// dataflow.
func (c *Cluster) run(ctx context.Context, p *plan.Plan, args []types.Value, r *Request, cacheState string) (res *Result, err error) {
	e := &exec{c: c, p: p, args: args, spec: r.Dist, serial: !r.Analyze && c.fastEligible(p)}
	if err := e.begin(r); err != nil {
		return nil, err
	}
	defer func() { e.end(err) }()
	e.place()
	if !e.serial {
		if err := e.admit(); err != nil {
			return nil, err
		}
		defer e.release()
		if err := e.wire(); err != nil {
			return nil, err
		}
	}
	blocks, err := e.drive(ctx)
	if err != nil {
		return nil, err
	}
	return e.collect(blocks, cacheState), nil
}

// queryScopeSeq numbers the auto-created query scopes of a process.
var queryScopeSeq atomic.Int64

// segInst is one segment instance: the iterator tree of a segment on
// one node, wrapped in an elastic worker pool and driven by a sender.
type segInst struct {
	seg     *plan.Segment
	node    int
	el      *elastic.Elastic
	sender  *iterator.Sender
	mergers []*iterator.Merger
	inboxes []*network.Inbox
	joins   []*iterator.HashJoin
	aggs    []*iterator.HashAgg
	hasScan bool
	// scanBlocks is the most blocks any of its scans reads on this node.
	scanBlocks int
	done       chan struct{}
}

// exec carries one query's runtime state. All measurement flows through
// the telemetry scope; ExecStats is derived from it after completion.
type exec struct {
	c *Cluster
	// p is the compiled plan — for a prepared statement the shared
	// template, slots and all, so operator ids and the analyzed rendering
	// name `$1`, not a value. args are the slots' values, one per slot
	// and already of the slots' kinds; bind puts them in.
	p    *plan.Plan
	args []types.Value
	// serial selects the serial driver; every field below feeds belongs
	// to the parallel dataflow and then stays zero.
	serial bool
	// spec is the explicit placement of a distributed query (nil on a
	// single-process cluster).
	spec *ExecSpec
	qid  int // cluster-unique query id: the exchange namespace
	// master is the node hosting master segments and the result
	// collector; dataNodes are the nodes running data segments (the alive
	// subset, ascending and identical on every participant); local
	// restricts instantiation to one node (-1 = instantiate all, the
	// single-process cluster).
	master    int
	dataNodes []int
	local     int

	reg   *telemetry.Registry
	qrec  *telemetry.QueryRecord
	qsp   *telemetry.Span
	began time.Time
	// scope is nil only under the serial driver with neither a caller
	// scope nor a process registry: an untracked microsecond-scale query
	// has no one to report to.
	scope   *telemetry.Scope
	startAt time.Duration // scope clock when execution began
	az      *analyzeState // non-nil on analyzed runs

	// feeds[ex] is the serial driver's exchange edge: the producer
	// segment's whole output, replayed at the consumer's merger position.
	feeds map[int][]*block.Block
	// wctx is the serial driver's worker context, fresh for each
	// segment; term is its termination flag, which nothing raises. They
	// live here so a statement does not allocate them.
	wctx iterator.Ctx
	term iterator.TermFlag

	// resultExID is the result collector's exchange id, derived as one
	// past the plan's highest exchange id — unique within the query's
	// namespace, no reserved constant to collide on.
	resultExID int
	tracker    *block.Tracker
	// qmem[n] is the query's memory account on node n (a child of the
	// cluster's node budget): every stateful operator instance charges
	// its state to a sub-account of it, so per-node and per-query caps
	// compose through one hierarchy.
	qmem      []*block.Tracker
	exchanges map[int]network.FabricExchange
	consNodes map[int][]int
	insts     []*segInst
	resultEx  network.FabricExchange
	stop      chan struct{}

	// failOnce/failErr implement fail-fast teardown: the first error
	// aborts every exchange so no sender, receiver or worker stays
	// wedged on a dataflow that will never complete.
	failOnce sync.Once
	failMu   sync.Mutex
	failErr  error

	memGauge  *telemetry.Gauge
	traceSink *telemetry.MemSink // retains ParallelismSample events

	// opMemSum/opMemN accumulate the sampler's per-operator mem_bytes
	// readings for EXPLAIN ANALYZE's mean column. Written only by the
	// sampler goroutine, read after it exits.
	opMemSum map[int]float64
	opMemN   map[int]int64

	// ops assigns plan-operator ids for per-operator instrumentation.
	// Nil on the default path: no iterator wrapping, no extra counters —
	// the hot loops run exactly as without observability. Populated for
	// analyzed or span-traced queries; ids are per plan-template node, so
	// the per-node instantiations of one segment share counters and
	// aggregate cluster-wide by construction.
	ops map[plan.PhysOp]int
}

// fail records the query's first error and tears the dataflow down:
// every exchange (result collector included) is aborted, which fails
// pending sends, unblocks and drains all inboxes, and lets
// every segment's workers and sender run to completion. Later errors —
// typically the "exchange aborted" cascade from the teardown itself —
// are dropped.
func (e *exec) fail(err error) {
	e.failOnce.Do(func() {
		e.failMu.Lock()
		e.failErr = err
		e.failMu.Unlock()
		e.scope.Emit(telemetry.QueryPhase{Phase: "error", Detail: err.Error()})
		for _, ex := range e.exchanges {
			ex.Abort()
		}
		if e.resultEx != nil {
			e.resultEx.Abort()
		}
	})
}

// err returns the first recorded failure.
func (e *exec) err() error {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	return e.failErr
}

// spillErr returns the first spill I/O failure any stateful operator
// instance recorded, if any.
func (e *exec) spillErr() error {
	for _, inst := range e.insts {
		for _, j := range inst.joins {
			if err := j.SpillError(); err != nil {
				return fmt.Errorf("engine: join spill on node %d: %w", inst.node, err)
			}
		}
		for _, a := range inst.aggs {
			if err := a.SpillError(); err != nil {
				return fmt.Errorf("engine: agg spill on node %d: %w", inst.node, err)
			}
		}
	}
	return nil
}

// opMem builds the memory-governance handle of one stateful operator
// instance: a sub-account of the query's budget on the operator's
// node, the cluster spill directory, and — when the query is
// instrumented — the op.<id>.mem_bytes gauge EXPLAIN ANALYZE reads.
func (e *exec) opMem(op plan.PhysOp, kind string, node int) *iterator.MemConfig {
	m := &iterator.MemConfig{
		Acct:     e.qmem[node].Sub(kind),
		SpillDir: e.c.cfg.SpillDir,
		Scope:    e.scope,
		Node:     node,
		Op:       kind,
	}
	if e.ops != nil {
		m.Gauge = e.scope.Gauge(telemetry.OpCtr(e.ops[op], telemetry.OpMemBytes))
	}
	return m
}

// nodesOf lists the nodes a segment group is instantiated on. The
// answer must be identical on every participant of a distributed query
// (it fixes exchange instance indexing), so it derives purely from the
// exec's agreed placement, never from process-local state.
func (e *exec) nodesOf(seg *plan.Segment) []int {
	if seg.OnMaster {
		return []int{e.master}
	}
	return e.dataNodes
}

// hosts reports whether this process instantiates segment instances
// placed on the given node.
func (e *exec) hosts(node int) bool {
	return e.local < 0 || node == e.local
}

// newQueryScope creates the auto-named telemetry scope of one query.
func newQueryScope() *telemetry.Scope {
	return telemetry.NewScope(fmt.Sprintf("q%d", queryScopeSeq.Add(1)))
}

// begin opens the query: refuses a closed cluster, settles the
// telemetry scope, records the query in the process registry and starts
// its span. Analyzed runs hook their extra sinks in before the first
// event can fire.
func (e *exec) begin(r *Request) error {
	if e.c.closed.Load() {
		return ErrClosed
	}
	e.reg = telemetry.DefaultRegistry()
	e.scope = r.Scope
	if e.scope == nil && (!e.serial || e.reg != nil) {
		// A serial query with no registry either is untracked and needs
		// no scope at all — the serving loop's steady state.
		e.scope = newQueryScope()
	}
	if r.Analyze {
		e.az = &analyzeState{}
		e.az.attach(e)
	}
	e.qrec = e.reg.Begin(e.scope, r.SQL)
	e.began = time.Now()
	if e.scope != nil {
		e.qsp = e.scope.StartSpan("query", "query")
		e.startAt = e.scope.Elapsed()
	}
	return nil
}

// end closes what begin opened, on every exit path.
func (e *exec) end(err error) {
	e.qsp.End()
	e.reg.Finish(e.qrec, err)
}

// place fixes where segments run. A distributed query's placement is
// the spec every participant agreed on; otherwise it is the classic
// all-in-one-process one: master segments on the cluster's master node,
// data segments on every data node, all instantiated here.
func (e *exec) place() {
	if e.spec != nil {
		e.qid, e.master, e.dataNodes, e.local = e.spec.QID, e.spec.Coordinator, e.spec.DataNodes, e.c.dist.local
		return
	}
	e.qid, e.master, e.dataNodes, e.local = e.c.NextQueryID(), e.c.master(), e.c.allNodes, -1
}

// admit opens the query's per-node memory accounts, prepaying the
// estimated working memory (capped at half the node budget so a single
// large query is always admittable — it completes by spilling). With no
// node budget configured the accounts still track, so stats and
// observability work unconstrained.
func (e *exec) admit() error {
	c := e.c
	e.tracker = block.NewTracker()
	e.memGauge = e.scope.Gauge(telemetry.GaugeMemBytes)
	estSlave, estMaster := c.estimateQueryMemory(e.p)
	for i := 0; i <= c.cfg.Nodes; i++ {
		est := estSlave
		if i == c.master() {
			est = estMaster
		}
		var prepaid int64
		if c.cfg.MemoryPerNode > 0 {
			prepaid = est
			if half := c.cfg.MemoryPerNode / 2; prepaid > half {
				prepaid = half
			}
		}
		qt, err := c.memBudgets[i].SubReserve(fmt.Sprintf("q%d", e.qid), prepaid)
		if err != nil {
			e.release()
			return fmt.Errorf("%w: node %d: %v", ErrMemoryBudget, i, err)
		}
		e.qmem = append(e.qmem, qt)
	}
	return nil
}

// release undoes admit and wire once the query is fully torn down (all
// senders, readers and samplers joined), on every exit path: the query
// leaves the distributed inflight table, its exchange state is dropped
// from the transport so a long-lived serving cluster does not accrete
// per-query registries, and dropping the memory accounts refunds the
// prepaid reservation and any charge a failed query's operators never
// freed.
func (e *exec) release() {
	if e.spec != nil {
		e.c.dist.unregister(e.qid)
	}
	for _, ex := range e.exchanges {
		ex.Release()
	}
	if e.resultEx != nil {
		e.resultEx.Release()
	}
	for _, t := range e.qmem {
		t.Drop()
	}
}

// wire builds the dataflow: one fabric exchange per plan exchange plus
// the result collector, then the segment instances this process hosts
// (all of them for a single-process cluster, the local node's share in
// distributed mode).
func (e *exec) wire() error {
	c, p, sc := e.c, e.p, e.scope
	e.exchanges = make(map[int]network.FabricExchange)
	e.consNodes = make(map[int][]int)
	e.stop = make(chan struct{})
	e.traceSink = telemetry.NewMemSink(telemetry.KindParallelismSample)
	sc.Attach(e.traceSink)
	// Per-operator instrumentation is keyed off the same switch that
	// turns on spans: analyzed queries and span-traced queries get the
	// iterator.Instrumented wrappers, everything else runs the bare
	// iterator chain.
	if e.az != nil || sc.SpansEnabled() {
		e.ops = make(map[plan.PhysOp]int)
		for _, s := range p.Segments {
			plan.Walk(s.Root, func(op plan.PhysOp) {
				if _, ok := e.ops[op]; !ok {
					e.ops[op] = len(e.ops)
				}
			})
		}
		e.opMemSum = make(map[int]float64)
		e.opMemN = make(map[int]int64)
	}
	sc.Emit(telemetry.QueryPhase{Phase: "start", Detail: c.cfg.Mode.String()})
	wireSp := sc.StartSpan("wire", "query")
	defer wireSp.End()

	// ME mode stages entire intermediate results in unbounded inboxes
	// (the materialization of Section 5.4).
	buf := c.cfg.ExchangeBuffer
	if c.cfg.Mode == ME {
		buf = 0
	}
	maxExID := 0
	for _, ex := range p.Exchanges {
		prod, cons := p.Segment(ex.Producer), p.Segment(ex.Consumer)
		if prod == nil || cons == nil {
			return fmt.Errorf("engine: exchange %d is dangling", ex.ID)
		}
		if ex.ID > maxExID {
			maxExID = ex.ID
		}
		consNodes := e.nodesOf(cons)
		e.consNodes[ex.ID] = consNodes
		e.exchanges[ex.ID] = c.fabric.NewExchange(e.qid, ex.ID, len(e.nodesOf(prod)), consNodes,
			ex.Sch, buf, e.tracker, sc)
	}

	// The result collector: final segment gathers to the master. Its
	// exchange id is derived — one past the plan's highest — so it is
	// unique within this query's (qid-keyed) namespace with no reserved
	// constant that concurrent queries could collide on.
	e.resultExID = maxExID + 1
	e.resultEx = c.fabric.NewExchange(e.qid, e.resultExID, len(e.nodesOf(p.Final)),
		[]int{e.master}, p.Final.Root.Schema(), buf, e.tracker, sc)

	for _, seg := range p.Segments {
		for _, node := range e.nodesOf(seg) {
			if !e.hosts(node) {
				continue
			}
			inst, err := e.instantiate(seg, node)
			if err != nil {
				return err
			}
			e.insts = append(e.insts, inst)
		}
	}

	// Distributed queries enroll in the inflight table only now that the
	// dataflow is fully wired: NodeLost tears execs down concurrently,
	// and it must never observe a half-built one. A death notification
	// that raced the wiring is caught here by the lost list instead.
	if e.spec != nil {
		if err := c.dist.register(e); err != nil {
			e.fail(err)
			for _, inst := range e.insts {
				inst.el.Close()
			}
			close(e.stop)
			return err
		}
	}
	return nil
}

// drive runs the wired dataflow to completion under the cluster's mode
// and returns the result blocks the master collected (none on a
// distributed participant, whose final blocks stream to the
// coordinator). The serial driver needs none of the machinery here.
func (e *exec) drive(ctx context.Context) ([]*block.Block, error) {
	if e.serial {
		return e.runSerial(ctx)
	}
	c := e.c
	execSp := e.scope.StartSpan("execute", "query")
	defer execSp.End()

	// Route caller cancellation into the fail-fast teardown: aborting
	// the exchanges unwedges every worker, and the query returns the
	// context's error. A context already done fails the query before it
	// starts, so a short query cannot outrun the watcher and succeed.
	// The watcher exits with the dataflow and is joined before the
	// verdict is read: its abort can then neither cut short the drain of
	// a successful result nor, after release, re-create the exchanges it
	// aborts.
	var watcherDone chan struct{}
	if ctx.Done() != nil {
		if err := ctx.Err(); err != nil {
			e.fail(err)
		}
		watcherDone = make(chan struct{})
		go func() {
			defer close(watcherDone)
			select {
			case <-ctx.Done():
				e.fail(ctx.Err())
			case <-e.stop:
			}
		}()
	}

	// Result reader drains the collector concurrently so bounded
	// buffers never stall the final senders. Only the master-hosting
	// process has the collector inbox.
	var resBlocks []*block.Block
	resDone := make(chan struct{})
	if e.hosts(e.master) {
		go func() {
			defer close(resDone)
			in := e.resultEx.Inbox(0)
			for {
				b, st := in.Recv(nil)
				if st != iterator.RecvOK {
					return
				}
				resBlocks = append(resBlocks, b)
			}
		}()
	} else {
		close(resDone)
	}

	// Memory/trace sampler.
	samplerDone := make(chan struct{})
	go e.sampler(samplerDone)

	// Recovery watchdog: with faults in play, injected worker crashes
	// can empty a pool mid-query; the watchdog re-expands dead pools on
	// the surviving elastic path so the query degrades instead of
	// hanging.
	var watchdogDone chan struct{}
	if c.faultInj.Enabled() {
		watchdogDone = make(chan struct{})
		go e.watchdog(watchdogDone)
	}

	if c.cfg.Mode == ME {
		e.runMaterialized()
	} else {
		e.runPipelined()
	}
	close(e.stop)
	if watcherDone != nil {
		<-watcherDone
	}
	<-samplerDone
	if watchdogDone != nil {
		<-watchdogDone
	}
	err := e.err()
	if err == nil {
		// A half-written spill partition would silently drop rows; a
		// spill I/O failure therefore fails the query rather than
		// returning a plausible-but-wrong result.
		err = e.spillErr()
	}
	if err != nil {
		// The result reader unblocks because fail() abandoned the
		// collector's inboxes.
		e.fail(err)
		<-resDone
		if e.spec != nil {
			// Give the failure detector its grace to upgrade a transport
			// symptom into the typed NodeLostError verdict.
			err = e.resolveDistError(err)
		}
		return nil, err
	}
	<-resDone
	return resBlocks, nil
}

// collect packages a successful run: the result, its stats view, and —
// for analyzed runs — the measured plan (or, on a distributed
// participant, the scope snapshot the coordinator merges).
func (e *exec) collect(blocks []*block.Block, cacheState string) *Result {
	res := &Result{
		Names:  e.p.OutputNames,
		Schema: e.p.Final.Root.Schema(),
		Blocks: blocks,
		Scope:  e.scope,
	}
	e.qrec.SetRows(int64(res.NumRows()))
	if e.serial {
		if e.reg != nil {
			e.reg.Counter(telemetry.CtrFastPathQueries).Inc()
		}
		res.Stats.Duration = time.Since(e.began)
		return res
	}
	// Final peak estimate: the exchange tracker and the per-node query
	// accounts each record their own high-water marks, covering queries
	// shorter than one sampling interval.
	finalMem := e.tracker.Peak()
	for _, t := range e.qmem {
		finalMem += t.Peak()
	}
	e.memGauge.Set(finalMem) // raises the gauge peak if exceeded
	e.scope.Emit(telemetry.QueryPhase{Phase: "end"})
	if e.az != nil && e.participant() {
		// The fragment's query span belongs on the coordinator's trace:
		// close it before the scope is serialized (end's End is then a
		// no-op on the nil span).
		e.qsp.End()
		e.qsp = nil
		res.Snapshot = e.az.snapshot(e)
	} else if e.az != nil {
		// Analyzed distributed queries first gather the participants'
		// shipped scope snapshots, so the analysis reads the merged
		// cluster-wide counters and keeps each node's share for per-node
		// rendering and skew.
		if e.spec != nil {
			e.gatherDistStats(e.az)
		}
		res.Analysis = e.az.finish(e)
		res.Analysis.CacheState = cacheState
		e.qrec.SetNodeBreakdown(res.Analysis.NodeBreakdowns())
	}
	res.Stats = e.stats()
	return res
}

// stats derives the ExecStats view from the query's telemetry scope.
func (e *exec) stats() ExecStats {
	var trace []TraceSample
	for _, ev := range e.traceSink.Events() {
		trace = append(trace, TraceSample{
			At:          ev.At - e.startAt,
			Parallelism: ev.Rec.(telemetry.ParallelismSample).Parallelism,
		})
	}
	return ExecStats{
		Duration:        e.scope.Elapsed() - e.startAt,
		PeakMemoryBytes: e.memGauge.Peak(),
		NetworkBytes:    e.scope.Counter(telemetry.CtrNetBytes).Load(),
		SchedOverhead:   time.Duration(e.scope.Counter(telemetry.CtrSchedOverheadNs).Load()),
		Trace:           trace,
	}
}

// instantiate builds one segment instance on a node.
func (e *exec) instantiate(seg *plan.Segment, node int) (*segInst, error) {
	inst := &segInst{seg: seg, node: node, done: make(chan struct{})}
	root, err := e.buildOp(seg.Root, buildEnv{seg: seg, node: node, inst: inst})
	if err != nil {
		return nil, err
	}
	maxW := 0
	if seg.OrderPreserving {
		maxW = 1 // ordered emission requires a single worker
	}
	lease := e.c.leases[node]
	inst.el = elastic.New(root, elastic.Config{
		BufferCap:       64,
		OrderPreserving: seg.OrderPreserving,
		MaxWorkers:      maxW,
		Scope:           e.scope,
		Name:            fmt.Sprintf("S%d", seg.ID),
		Node:            node,
		Faults:          e.c.faultInj,
		// Every exiting worker (drain, shrink or crash) returns its core
		// slot to the node's shared pool.
		OnWorkerExit: lease.Release,
	})

	// Output: the segment's exchange, or the result collector.
	// Nil partition keys make the sender a gather: blocks forward whole.
	ex := e.resultEx
	var partKeys []expr.Expr
	if seg.Out != nil {
		ex = e.exchanges[seg.Out.Exchange]
		if partKeys, err = bindEach(e, seg.Out.PartKeys, exprOf); err != nil {
			return nil, err
		}
	}
	inst.sender = iterator.NewSender(inst.el, seg.Root.Schema(), ex.Outbox(node), partKeys)
	inst.sender.SetBlockSize(e.c.cfg.BlockSize)
	inst.sender.SendCopies = ex.SendCopies()
	return inst, nil
}

// buildEnv is what differs between the drivers when a segment's
// operator templates are lowered into iterators: where scans and
// mergers read, and whether stateful operators are governed.
//
// With inst set — the parallel drivers — the tree is one node's
// instance of the segment: a scan reads that node's partition (an empty
// one when the scan's predicate pins its partition key elsewhere), a merger
// reads its fabric inbox, stateful operators charge a memory account
// and may spill, and what the scheduler adapter and the spill check
// need later (mergers, inboxes, joins, aggregates) is recorded on inst.
//
// With inst nil — the serial driver — the tree is the segment's single
// fused instance over every node it is placed on: a scan chains those
// nodes' partitions (only the owners' when its predicate pins its
// partition key), a merger replays the finished producer's blocks
// (exec.feeds), and stateful operators run unaccounted and unsharded
// (the fastPathRows cap bounds their state; one worker has no
// contention to shard for). Fusing is what makes the serial driver
// fast: hash tables, barriers and compiled kernels are built once per
// segment instead of once per node, and a serial drive makes the
// union-of-partitions input equivalent to the per-node instances for
// the algebraic operators fastEligible admits.
type buildEnv struct {
	seg  *plan.Segment
	node int
	inst *segInst
}

// errNotSerial is the builder's answer for an operator the serial
// driver's eligibility rule excludes.
var errNotSerial = errors.New("engine: operator is not eligible for the serial driver")

// buildOp lowers a physical operator template into iterators — the one
// place iterators are constructed, for every driver. Each operator is
// wrapped in per-operator accounting when the query is analyzed or
// span-traced (e.ops non-nil). The wrapper writes the op.<id>.*
// counters EXPLAIN ANALYZE reads, so the annotated plan and the
// telemetry stream cannot disagree.
func (e *exec) buildOp(op plan.PhysOp, env buildEnv) (iterator.Iterator, error) {
	it, err := e.buildBare(op, env)
	if err != nil || e.ops == nil {
		return it, err
	}
	return iterator.Instrument(it, e.scope, e.ops[op], plan.OpLabel(op),
		fmt.Sprintf("S%d", env.seg.ID), env.node), nil
}

func (e *exec) buildBare(op plan.PhysOp, env buildEnv) (iterator.Iterator, error) {
	switch n := op.(type) {
	case *plan.PScan:
		var pred expr.Expr
		if n.Pred != nil {
			var err error
			if pred, err = e.bind(n.Pred); err != nil {
				return nil, err
			}
		}
		// A predicate that pins the partition key reads only the
		// partitions of the nodes that own its constants.
		pin, pinned := pinOf(pred, n.Table)
		nodes := len(e.c.stores)
		var it iterator.Iterator
		read := 0 // partitions this build reads
		if env.inst != nil {
			part, err := e.c.store(env.node).Partition(n.Table.Name)
			if err != nil {
				return nil, err
			}
			if pinned && !pin.owns(env.node, nodes) {
				// An empty scan: the instance still runs, and closes its
				// streams, with nothing to read.
				part = &storage.Partition{Schema: part.Schema, Sockets: part.Sockets}
			} else {
				read = 1
			}
			env.inst.hasScan = true
			env.inst.scanBlocks = max(env.inst.scanBlocks, len(part.Blocks))
			it = iterator.NewScanWithSchema(part, n.Sch)
		} else {
			placed := e.nodesOf(env.seg)
			parts := make([]*storage.Partition, 0, len(placed))
			for _, node := range placed {
				if pinned && !pin.owns(node, nodes) {
					continue
				}
				part, err := e.c.store(node).Partition(n.Table.Name)
				if err != nil {
					return nil, err
				}
				parts = append(parts, part)
			}
			read = len(parts)
			it = iterator.NewSerialScan(parts, n.Sch)
		}
		if e.ops != nil {
			e.scope.Counter(telemetry.OpCtr(e.ops[n], telemetry.OpPartsRead)).Add(int64(read))
		}
		if pred != nil {
			it = iterator.NewFilter(it, n.Sch, pred)
		}
		return it, nil

	case *plan.PMerger:
		if env.inst == nil {
			return &blockFeed{blocks: e.feeds[n.Exchange]}, nil
		}
		instIdx := -1
		for i, cn := range e.consNodes[n.Exchange] {
			if cn == env.node {
				instIdx = i
			}
		}
		if instIdx < 0 {
			return nil, fmt.Errorf("engine: node %d is not a consumer of exchange %d", env.node, n.Exchange)
		}
		inbox := e.exchanges[n.Exchange].Inbox(instIdx)
		m := iterator.NewMerger(inbox, n.Sch)
		env.inst.mergers = append(env.inst.mergers, m)
		env.inst.inboxes = append(env.inst.inboxes, inbox)
		return m, nil

	case *plan.PFilter:
		child, err := e.buildOp(n.Child, env)
		if err != nil {
			return nil, err
		}
		pred, err := e.bind(n.Pred)
		if err != nil {
			return nil, err
		}
		return iterator.NewFilter(child, n.Child.Schema(), pred), nil

	case *plan.PProject:
		child, err := e.buildOp(n.Child, env)
		if err != nil {
			return nil, err
		}
		exprs, err := bindEach(e, n.Exprs, exprOf)
		if err != nil {
			return nil, err
		}
		return iterator.NewProject(child, n.Child.Schema(), n.Sch, exprs), nil

	case *plan.PHashJoin:
		if env.inst == nil {
			// fastEligible admits no join, so the serial driver reaching one
			// is a driver-selection bug: refuse rather than fuse a shape
			// nobody has shown equivalent.
			return nil, fmt.Errorf("%w: %s", errNotSerial, plan.OpLabel(op))
		}
		build, err := e.buildOp(n.Build, env)
		if err != nil {
			return nil, err
		}
		probe, err := e.buildOp(n.Probe, env)
		if err != nil {
			return nil, err
		}
		buildKeys, err := bindEach(e, n.BuildKeys, exprOf)
		if err != nil {
			return nil, err
		}
		probeKeys, err := bindEach(e, n.ProbeKeys, exprOf)
		if err != nil {
			return nil, err
		}
		var hj *iterator.HashJoin
		if n.PerBuildRow {
			aggs, err := bindEach(e, n.Aggs, aggArgOf)
			if err != nil {
				return nil, err
			}
			hj = iterator.NewHashJoinAgg(build, probe, n.Build.Schema(), n.Probe.Schema(),
				buildKeys, probeKeys, aggs)
		} else {
			hj = iterator.NewHashJoin(build, probe, n.Build.Schema(), n.Probe.Schema(),
				buildKeys, probeKeys)
		}
		hj.Mem = e.opMem(n, "hashjoin", env.node)
		env.inst.joins = append(env.inst.joins, hj)
		return hj, nil

	case *plan.PHashAgg:
		child, err := e.buildOp(n.Child, env)
		if err != nil {
			return nil, err
		}
		keys, err := bindEach(e, n.Keys, exprOf)
		if err != nil {
			return nil, err
		}
		specs, err := bindEach(e, n.Specs, aggArgOf)
		if err != nil {
			return nil, err
		}
		ha := iterator.NewHashAgg(child, n.Child.Schema(), keys, n.KeyNames, specs, n.Algo)
		ha.Partial = n.Partial
		if env.inst == nil {
			ha.Serial()
			return ha, nil
		}
		ha.Mem = e.opMem(n, "hashagg", env.node)
		env.inst.aggs = append(env.inst.aggs, ha)
		return ha, nil

	case *plan.PSort:
		child, err := e.buildOp(n.Child, env)
		if err != nil {
			return nil, err
		}
		keys, err := bindEach(e, n.Keys, sortKeyOf)
		if err != nil {
			return nil, err
		}
		so := iterator.NewSort(child, n.Child.Schema(), keys)
		if env.inst != nil {
			so.Mem = e.opMem(n, "sort", env.node)
		}
		return so, nil

	case *plan.PTopN:
		child, err := e.buildOp(n.Child, env)
		if err != nil {
			return nil, err
		}
		keys, err := bindEach(e, n.Keys, sortKeyOf)
		if err != nil {
			return nil, err
		}
		return iterator.NewTopN(child, n.Child.Schema(), keys, int(n.N)), nil

	case *plan.PLimit:
		child, err := e.buildOp(n.Child, env)
		if err != nil {
			return nil, err
		}
		return iterator.NewLimit(child, n.Child.Schema(), n.N), nil
	}
	return nil, fmt.Errorf("engine: cannot instantiate %T", op)
}

// bind and bindEach are where a query's arguments meet its plan: each
// returns what it was given with the arguments substituted as constants
// for the $n slots. buildBare and instantiate pass every expression they
// hand to an iterator through one of them — the same fields plan's
// walkOpExprs visits — so an iterator never sees a slot and the shared
// plan never sees a value. A query without arguments (every ad-hoc and
// analytic statement) gets its input back untouched, and so does an
// expression, or a whole list, that holds no slot: substitution shares
// what it does not change.
func (e *exec) bind(x expr.Expr) (expr.Expr, error) {
	if len(e.args) == 0 {
		return x, nil
	}
	return expr.SubstParams(x, e.args)
}

// bindEach binds the expression at(&xs[i]) of every element, copying xs
// only once an element changes.
func bindEach[T any](e *exec, xs []T, at func(*T) *expr.Expr) ([]T, error) {
	if len(e.args) == 0 {
		return xs, nil
	}
	out := xs
	for i := range xs {
		x := *at(&xs[i])
		b, err := expr.SubstParams(x, e.args)
		if err != nil {
			return nil, err
		}
		if b != x {
			if &out[0] == &xs[0] {
				out = append([]T(nil), xs...)
			}
			*at(&out[i]) = b
		}
	}
	return out, nil
}

// The expression inside each kind of element bindEach is used on.
func exprOf(x *expr.Expr) *expr.Expr           { return x }
func aggArgOf(s *iterator.AggSpec) *expr.Expr  { return &s.Arg }
func sortKeyOf(k *iterator.SortKey) *expr.Expr { return &k.E }

// startInst launches a segment instance with the given parallelism and
// its sender driver.
func (e *exec) startInst(inst *segInst, parallelism int) {
	// Engine segments are single-stage (blocking operators buffer
	// internally); the stage-entry event aligns the engine's stream
	// with the simulator's per-stage events.
	e.scope.Emit(telemetry.SegmentStageChange{
		Node: inst.node, Segment: fmt.Sprintf("S%d", inst.seg.ID),
		Stage: 0, StageName: "run",
	})
	for i := 0; i < parallelism; i++ {
		e.expand(inst, true)
	}
	// One span covers the instance's whole lifetime: first worker start
	// to sender drain. Started here (not in the goroutine) so its begin
	// timestamp orders before any worker span of the segment.
	segSp := e.scope.StartSpan("segment", "segment").
		WithNode(inst.node).WithSegment(fmt.Sprintf("S%d", inst.seg.ID))
	go func() {
		defer close(inst.done)
		defer segSp.End()
		ctx := &iterator.Ctx{Term: &iterator.TermFlag{}}
		if err := inst.sender.Run(ctx); err != nil {
			e.fail(fmt.Errorf("segment S%d on node %d: %w", inst.seg.ID, inst.node, err))
		}
		inst.el.Close()
	}()
}

// maxRecoveryExpands bounds watchdog re-expansions per query, so a
// pathological crash schedule cannot spin the pool forever.
const maxRecoveryExpands = 256

// watchdog polls for dead worker pools (every worker crashed before
// end-of-flow) and re-expands them through the ordinary elastic expand
// path — graceful degradation onto the surviving workers instead of a
// wedged query. Only started when the cluster's fault injector is
// enabled.
func (e *exec) watchdog(done chan struct{}) {
	defer close(done)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	expands := 0
	for {
		select {
		case <-e.stop:
			return
		case <-tick.C:
		}
		for _, inst := range e.insts {
			if !inst.el.Dead() {
				continue
			}
			if expands >= maxRecoveryExpands {
				e.fail(fmt.Errorf("engine: recovery budget exhausted after %d re-expansions", expands))
				return
			}
			if e.expand(inst, true) {
				expands++
				e.scope.Counter(telemetry.CtrRecoverExpands).Inc()
				e.scope.Emit(telemetry.Recovery{
					Node: inst.node, Segment: fmt.Sprintf("S%d", inst.seg.ID),
					Action: "re-expand", Workers: inst.el.Parallelism(),
				})
			}
		}
	}
}

// expand adds one worker to an instance, leasing a core slot from the
// node's cluster-level pool (shared across all concurrent queries).
//
// must distinguishes mandatory workers — the fixed parallelism SP/ME
// start with, a segment's initial worker, watchdog recovery — from EP's
// elective expansions (its start-time fill and the scheduler's). When
// the node is fully booked, a mandatory worker still starts on the
// least-loaded core with the overdraft accounted (a dataflow with a
// zero-worker segment would never finish), while an elective expansion
// is refused so scheduled parallelism never exceeds the per-node core
// budget.
func (e *exec) expand(inst *segInst, must bool) bool {
	if !must && e.c.memPressureHigh(inst.node) {
		// Above the memory watermark the node refuses to widen pools:
		// more workers mean more parked state and private tables, the
		// opposite of what a node near its budget needs.
		e.scope.Counter(telemetry.CtrMemRefusedExpands).Inc()
		return false
	}
	lease := e.c.leases[inst.node]
	core, ok := lease.Acquire()
	if !ok {
		if !must && inst.el.Parallelism() > 0 {
			return false
		}
		core = lease.AcquireOversub()
	}
	socket := 0
	if e.c.cfg.Sockets > 1 {
		socket = core * e.c.cfg.Sockets / e.c.cfg.CoresPerNode
	}
	if inst.el.Expand(core, socket) < 0 {
		lease.Release(core)
		return false
	}
	return true
}

// start launches one segment instance at its mode's starting width. SP
// and ME start FixedParallelism mandatory workers. EP starts one, then
// hands the instance every core its node has free, through the same
// elective expand the scheduler's free-core step uses — so the first
// handout happens at admission, not a tick later, and is refused where
// an expansion would be (a fully booked node, memory above the high
// water). Instances start in plan order, producers first, so a
// table-reading segment takes its node's cores before consumers that
// have no input yet book them. An instance whose only input is its
// scans takes no more workers than they have blocks on its node: a
// worker past that would find nothing to read.
func (e *exec) start(inst *segInst) {
	if e.c.cfg.Mode != EP {
		e.startInst(inst, e.c.cfg.FixedParallelism)
		return
	}
	e.startInst(inst, 1)
	width := e.c.cfg.CoresPerNode
	if inst.hasScan && len(inst.mergers) == 0 {
		width = min(width, inst.scanBlocks)
	}
	for w := 1; w < width; w++ {
		if !e.expand(inst, false) {
			return
		}
	}
}

// runPipelined starts every segment at once (EP and SP).
func (e *exec) runPipelined() {
	for _, inst := range e.insts {
		e.start(inst)
	}

	if e.c.cfg.Mode == EP {
		adapters := make([]*segAdapter, 0, len(e.insts))
		for _, inst := range e.insts {
			adapters = append(adapters, newSegAdapter(e, inst))
		}
		e.c.attachEP(e, adapters)
		defer e.c.detachEP(e, adapters)
	}
	for _, inst := range e.insts {
		<-inst.done
	}
}

// runMaterialized executes segments stage-at-a-time: a consumer starts
// only after all its producers finished, with the full intermediate
// result staged in the exchange inbox. e.insts is in plan order, and
// the plan's segments are producers-first, so each segment's instances
// are one contiguous run.
func (e *exec) runMaterialized() {
	for i := 0; i < len(e.insts); {
		j := i
		for j < len(e.insts) && e.insts[j].seg == e.insts[i].seg {
			e.start(e.insts[j])
			j++
		}
		for _, inst := range e.insts[i:j] {
			<-inst.done
		}
		i = j
	}
}

// sampler records the materialized-memory gauge and the parallelism
// trace on the query's telemetry scope.
func (e *exec) sampler(done chan struct{}) {
	defer close(done)
	tick := time.NewTicker(25 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-tick.C:
		}
		mem := e.tracker.Current()
		for _, t := range e.qmem {
			mem += t.Current()
		}
		e.memGauge.Set(mem)
		if e.ops != nil {
			// Per-operator mem readings feed EXPLAIN ANALYZE's mean column.
			for _, id := range e.ops {
				g := e.scope.Gauge(telemetry.OpCtr(id, telemetry.OpMemBytes))
				if v := g.Load(); v > 0 || e.opMemN[id] > 0 {
					e.opMemSum[id] += float64(v)
					e.opMemN[id]++
				}
			}
		}
		sample := telemetry.ParallelismSample{Parallelism: make(map[string]int)}
		for _, inst := range e.insts {
			if inst.node == 0 || inst.seg.OnMaster {
				sample.Parallelism[fmt.Sprintf("S%d", inst.seg.ID)] = inst.el.Parallelism()
			}
		}
		e.scope.Emit(sample)
	}
}
