package engine

import (
	"context"
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
	"repro/internal/telemetry"
)

// querySeq hands out process-unique query ids. Every fabric exchange is
// keyed by (query id, exchange id), so the dataflows of concurrent
// queries on one cluster — or several clusters in one process — can
// never cross.
var querySeq atomic.Int64

// Run compiles and executes a SQL query.
func (c *Cluster) Run(query string) (*Result, error) {
	p, _, err := c.CompileCached(query)
	if err != nil {
		return nil, err
	}
	return c.runAuto(context.Background(), p, nil, query)
}

// RunContext is Run under a context: cancellation (or deadline expiry)
// routes into the query's fail-fast teardown, aborting every exchange
// so no worker stays wedged, and the call returns the context's error.
func (c *Cluster) RunContext(ctx context.Context, query string) (*Result, error) {
	p, _, err := c.CompileCached(query)
	if err != nil {
		return nil, err
	}
	return c.runAuto(ctx, p, nil, query)
}

// RunScoped compiles and executes a SQL query under the given telemetry
// scope, so callers can attach sinks before execution starts.
func (c *Cluster) RunScoped(query string, sc *telemetry.Scope) (*Result, error) {
	p, _, err := c.CompileCached(query)
	if err != nil {
		return nil, err
	}
	return c.runAuto(context.Background(), p, sc, query)
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
	done    chan struct{}
}

// runOpts places a query explicitly — the distributed execution path.
// Nil means the classic all-in-one-process placement: master segments
// on the cluster's master node, data segments on every data node, all
// instantiated locally.
type runOpts struct {
	// qid is the externally assigned, cluster-unique query id.
	qid int
	// master hosts master-resident segments and the result collector.
	master int
	// dataNodes is the (alive) subset of data nodes scanning their
	// partitions, in ascending order on every participant.
	dataNodes []int
	// local is the only node this process instantiates segments for.
	local int
}

// exec carries one query's runtime state. All measurement flows through
// the telemetry scope; ExecStats is derived from it after completion.
type exec struct {
	c   *Cluster
	p   *plan.Plan
	qid int // cluster-unique query id: the exchange namespace
	// master is the node hosting master segments and the result
	// collector; dataNodes are the nodes running data segments; local
	// restricts instantiation to one node (-1 = instantiate all, the
	// single-process cluster).
	master    int
	dataNodes []int
	local     int
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
	consNodes  map[int][]int
	insts      []*segInst
	resultEx   network.FabricExchange
	stop       chan struct{}

	// failOnce/failErr implement fail-fast teardown: the first error
	// aborts every exchange so no sender, receiver or worker stays
	// wedged on a dataflow that will never complete.
	failOnce sync.Once
	failMu   sync.Mutex
	failErr  error

	scope     *telemetry.Scope
	memGauge  *telemetry.Gauge
	traceSink *telemetry.MemSink // retains ParallelismSample events
	startAt   time.Duration      // scope clock when execution began

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
// pending reliable sends, unblocks and drains all inboxes, and lets
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

// RunPlan executes a compiled plan under the cluster's mode, with a
// fresh telemetry scope per query.
func (c *Cluster) RunPlan(p *plan.Plan) (*Result, error) {
	return c.RunPlanScoped(p, newQueryScope())
}

// RunPlanScoped executes a compiled plan under the cluster's mode,
// recording all measurements on the given scope.
func (c *Cluster) RunPlanScoped(p *plan.Plan, sc *telemetry.Scope) (*Result, error) {
	return c.runPlan(context.Background(), p, sc, "", nil)
}

// runPlan is the single execution entry point behind Run/RunScoped/
// RunContext/RunPlan/RunPlanScoped and ExplainAnalyze. sqlText (when
// known) labels the query in the process registry; az non-nil collects
// the extra per-exchange measurements EXPLAIN ANALYZE reports; ctx
// cancellation routes into the fail-fast teardown.
func (c *Cluster) runPlan(ctx context.Context, p *plan.Plan, sc *telemetry.Scope, sqlText string, az *analyzeState) (res *Result, err error) {
	return c.runPlanOpts(ctx, p, sc, sqlText, az, nil)
}

// runPlanOpts is runPlan with explicit placement — the distributed
// path, where each participating process runs it against the same plan
// under the same opts and instantiates only its local share.
func (c *Cluster) runPlanOpts(ctx context.Context, p *plan.Plan, sc *telemetry.Scope, sqlText string, az *analyzeState, opts *runOpts) (res *Result, err error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	if p.NumParams > 0 {
		return nil, fmt.Errorf("engine: plan has %d unbound parameters; use PREPARE/EXECUTE or pass arguments", p.NumParams)
	}
	qrec := telemetry.DefaultRegistry().Begin(sc, sqlText)
	defer func() { telemetry.DefaultRegistry().Finish(qrec, err) }()
	qsp := sc.StartSpan("query", "query")
	defer qsp.End()

	e := &exec{
		c: c, p: p,
		tracker:   block.NewTracker(),
		exchanges: make(map[int]network.FabricExchange),
		consNodes: make(map[int][]int),
		stop:      make(chan struct{}),
		scope:     sc,
		memGauge:  sc.Gauge(telemetry.GaugeMemBytes),
		traceSink: telemetry.NewMemSink(telemetry.KindParallelismSample),
		startAt:   sc.Elapsed(),
	}
	if opts != nil {
		e.qid, e.master, e.dataNodes, e.local = opts.qid, opts.master, opts.dataNodes, opts.local
	} else {
		e.qid, e.master, e.local = c.NextQueryID(), c.master(), -1
		e.dataNodes = make([]int, c.cfg.Nodes)
		for i := range e.dataNodes {
			e.dataNodes[i] = i
		}
	}
	sc.Attach(e.traceSink)
	if az != nil {
		az.attach(e)
	}

	// Memory admission: open the query's per-node accounts, prepaying
	// the estimated working memory (capped at half the node budget so a
	// single large query is always admittable — it completes by
	// spilling). With no node budget configured the accounts still
	// track, so stats and observability work unconstrained.
	estSlave, estMaster := c.estimateQueryMemory(p)
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
		qt, qerr := c.memBudgets[i].SubReserve(
			fmt.Sprintf("q%d", e.qid), prepaid, c.cfg.MemoryPerQuery)
		if qerr != nil {
			for _, t := range e.qmem {
				t.Drop()
			}
			return nil, fmt.Errorf("%w: node %d: %v", ErrMemoryBudget, i, qerr)
		}
		e.qmem = append(e.qmem, qt)
	}
	// Drop covers every exit path: refunds the prepaid reservation and
	// any charge a failed query's operators never freed.
	defer func() {
		for _, t := range e.qmem {
			t.Drop()
		}
	}()
	// Per-operator instrumentation is keyed off the same switch that
	// turns on spans: analyzed queries and span-traced queries get the
	// iterator.Instrumented wrappers, everything else runs the bare
	// iterator chain.
	if az != nil || sc.SpansEnabled() {
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

	segByID := make(map[int]*plan.Segment)
	for _, s := range p.Segments {
		segByID[s.ID] = s
	}

	// Wire exchanges. ME mode stages entire intermediate results in
	// unbounded inboxes (the materialization of Section 5.4).
	buf := c.cfg.ExchangeBuffer
	if c.cfg.Mode == ME {
		buf = 0
	}
	maxExID := 0
	for _, ex := range p.Exchanges {
		prod, okP := segByID[ex.Producer]
		cons, okC := segByID[ex.Consumer]
		if !okP || !okC {
			return nil, fmt.Errorf("engine: exchange %d is dangling", ex.ID)
		}
		if ex.ID > maxExID {
			maxExID = ex.ID
		}
		prodNodes := e.nodesOf(prod)
		consNodes := e.nodesOf(cons)
		e.consNodes[ex.ID] = consNodes
		e.exchanges[ex.ID] = c.fabric.NewExchange(e.qid, ex.ID, len(prodNodes), consNodes,
			ex.Sch, buf, e.tracker, e.scope)
	}

	// The result collector: final segment gathers to the master. Its
	// exchange id is derived — one past the plan's highest — so it is
	// unique within this query's (qid-keyed) namespace with no reserved
	// constant that concurrent queries could collide on.
	e.resultExID = maxExID + 1
	finalNodes := e.nodesOf(p.Final)
	e.resultEx = c.fabric.NewExchange(e.qid, e.resultExID, len(finalNodes),
		[]int{e.master}, p.Final.Root.Schema(), buf, e.tracker, e.scope)

	// When the query is fully torn down (all senders, readers and
	// samplers joined), drop its exchange state from the transport so a
	// long-lived serving cluster does not accrete per-query registries.
	defer func() {
		for _, ex := range e.exchanges {
			ex.Release()
		}
		e.resultEx.Release()
	}()

	// Instantiate the segments this process hosts on their nodes (all of
	// them for a single-process cluster, the local node's share in
	// distributed mode).
	for _, seg := range p.Segments {
		for _, node := range e.nodesOf(seg) {
			if !e.hosts(node) {
				continue
			}
			inst, err := e.instantiate(seg, node)
			if err != nil {
				return nil, err
			}
			e.insts = append(e.insts, inst)
		}
	}
	wireSp.End()

	// Distributed queries enroll in the inflight table only now that the
	// dataflow is fully wired: NodeLost tears execs down concurrently,
	// and it must never observe a half-built one. A death notification
	// that raced the wiring is caught here by the lost list instead.
	if opts != nil && c.dist != nil {
		if rerr := c.dist.register(e); rerr != nil {
			e.fail(rerr)
			for _, inst := range e.insts {
				inst.el.Close()
			}
			close(e.stop)
			return nil, rerr
		}
		defer c.dist.unregister(e.qid)
	}
	execSp := sc.StartSpan("execute", "query")

	// Route caller cancellation into the fail-fast teardown: aborting
	// the exchanges unwedges every worker, and the query returns the
	// context's error. The watcher exits with the query (e.stop closes
	// on every post-instantiation path).
	if ctx != nil && ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				e.fail(ctx.Err())
			case <-e.stop:
			}
		}()
	}

	// Result reader drains the collector concurrently so bounded
	// buffers never stall the final senders. Only the master-hosting
	// process has the collector inbox; participants of a distributed
	// query stream their final blocks to the coordinator instead.
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

	// Execute under the selected mode.
	switch c.cfg.Mode {
	case ME:
		err = e.runMaterialized()
	default:
		err = e.runPipelined()
	}
	if err == nil {
		err = e.err()
	}
	if err == nil {
		// A half-written spill partition would silently drop rows; a
		// spill I/O failure therefore fails the query rather than
		// returning a plausible-but-wrong result.
		err = e.spillErr()
	}
	close(e.stop)
	<-samplerDone
	if watchdogDone != nil {
		<-watchdogDone
	}
	if err != nil {
		// The result reader unblocks because fail() abandoned the
		// collector's inboxes.
		e.fail(err)
		<-resDone
		execSp.End()
		if opts != nil && c.dist != nil {
			// Give the failure detector its grace to upgrade a transport
			// symptom into the typed NodeLostError verdict.
			err = e.resolveDistError(err)
		}
		return nil, err
	}
	<-resDone
	execSp.End()

	// Final peak estimate: the exchange tracker and the per-node query
	// accounts each record their own high-water marks, covering queries
	// shorter than one sampling interval.
	finalMem := e.tracker.Peak()
	for _, t := range e.qmem {
		finalMem += t.Peak()
	}
	e.memGauge.Set(finalMem) // raises the gauge peak if exceeded
	e.scope.Emit(telemetry.QueryPhase{Phase: "end"})
	if az != nil {
		// Analyzed distributed queries first gather the participants'
		// shipped scope snapshots, so the analysis below reads the merged
		// cluster-wide counters and keeps each node's share for per-node
		// rendering and skew.
		if opts != nil && c.dist != nil {
			e.gatherDistStats(az)
		}
		az.finish(e)
		qrec.SetNodeBreakdown(az.nodeBreakdowns())
	}

	res = &Result{
		Names:  p.OutputNames,
		Schema: p.Final.Root.Schema(),
		Blocks: resBlocks,
		Stats:  e.stats(),
		Scope:  e.scope,
	}
	qrec.SetRows(int64(res.NumRows()))
	return res, nil
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
	root, err := e.buildOp(seg.Root, node, inst)
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
		partKeys = seg.Out.PartKeys
	}
	inst.sender = iterator.NewSender(inst.el, seg.Root.Schema(), ex.Outbox(node), partKeys)
	inst.sender.SetBlockSize(e.c.cfg.BlockSize)
	inst.sender.ReuseStaging = ex.SendCopies()
	return inst, nil
}

// buildOp lowers a physical operator template into iterators on a
// node, wrapping each operator in per-operator accounting when the
// query is analyzed or span-traced (e.ops non-nil). The wrapper writes
// the op.<id>.* counters EXPLAIN ANALYZE reads, so the annotated plan
// and the telemetry stream cannot disagree.
func (e *exec) buildOp(op plan.PhysOp, node int, inst *segInst) (iterator.Iterator, error) {
	it, err := e.buildOpInner(op, node, inst)
	if err != nil || e.ops == nil {
		return it, err
	}
	return iterator.Instrument(it, e.scope, e.ops[op], plan.OpLabel(op),
		fmt.Sprintf("S%d", inst.seg.ID), node), nil
}

func (e *exec) buildOpInner(op plan.PhysOp, node int, inst *segInst) (iterator.Iterator, error) {
	switch n := op.(type) {
	case *plan.PScan:
		part, err := e.c.store(node).Partition(n.Table.Name)
		if err != nil {
			return nil, err
		}
		inst.hasScan = true
		var it iterator.Iterator = iterator.NewScanWithSchema(part, n.Sch)
		if n.Pred != nil {
			f := iterator.NewFilter(it, n.Sch, n.Pred)
			f.RowExec = e.c.cfg.RowExec
			it = f
		}
		return it, nil

	case *plan.PMerger:
		consNodes := e.consNodes[n.Exchange]
		instIdx := -1
		for i, cn := range consNodes {
			if cn == node {
				instIdx = i
			}
		}
		if instIdx < 0 {
			return nil, fmt.Errorf("engine: node %d is not a consumer of exchange %d", node, n.Exchange)
		}
		inbox := e.exchanges[n.Exchange].Inbox(instIdx)
		m := iterator.NewMerger(inbox, n.Sch)
		inst.mergers = append(inst.mergers, m)
		inst.inboxes = append(inst.inboxes, inbox)
		return m, nil

	case *plan.PFilter:
		child, err := e.buildOp(n.Child, node, inst)
		if err != nil {
			return nil, err
		}
		f := iterator.NewFilter(child, n.Child.Schema(), n.Pred)
		f.RowExec = e.c.cfg.RowExec
		return f, nil

	case *plan.PProject:
		child, err := e.buildOp(n.Child, node, inst)
		if err != nil {
			return nil, err
		}
		pr := iterator.NewProject(child, n.Child.Schema(), n.Sch, n.Exprs)
		pr.RowExec = e.c.cfg.RowExec
		return pr, nil

	case *plan.PHashJoin:
		build, err := e.buildOp(n.Build, node, inst)
		if err != nil {
			return nil, err
		}
		probe, err := e.buildOp(n.Probe, node, inst)
		if err != nil {
			return nil, err
		}
		hj := iterator.NewHashJoin(build, probe, n.Build.Schema(), n.Probe.Schema(),
			n.BuildKeys, n.ProbeKeys)
		hj.RowExec = e.c.cfg.RowExec
		hj.Mem = e.opMem(n, "hashjoin", node)
		inst.joins = append(inst.joins, hj)
		return hj, nil

	case *plan.PHashAgg:
		child, err := e.buildOp(n.Child, node, inst)
		if err != nil {
			return nil, err
		}
		ha := iterator.NewHashAgg(child, n.Child.Schema(), n.Keys, n.KeyNames, n.Specs, n.Algo)
		ha.RowExec = e.c.cfg.RowExec
		ha.Mem = e.opMem(n, "hashagg", node)
		inst.aggs = append(inst.aggs, ha)
		return ha, nil

	case *plan.PSort:
		child, err := e.buildOp(n.Child, node, inst)
		if err != nil {
			return nil, err
		}
		so := iterator.NewSort(child, n.Child.Schema(), n.Keys)
		so.Mem = e.opMem(n, "sort", node)
		return so, nil

	case *plan.PTopN:
		child, err := e.buildOp(n.Child, node, inst)
		if err != nil {
			return nil, err
		}
		return iterator.NewTopN(child, n.Child.Schema(), n.Keys, int(n.N)), nil

	case *plan.PLimit:
		child, err := e.buildOp(n.Child, node, inst)
		if err != nil {
			return nil, err
		}
		return iterator.NewLimit(child, n.Child.Schema(), n.N), nil
	}
	return nil, fmt.Errorf("engine: cannot instantiate %T", op)
}

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
// start with, a segment's initial worker, watchdog recovery — from the
// EP scheduler's elective expansions. When the node is fully booked, a
// mandatory worker still starts on the least-loaded core with the
// overdraft accounted (a dataflow with a zero-worker segment would
// never finish), while an elective expansion is refused so scheduled
// parallelism never exceeds the per-node core budget.
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

// runPipelined starts every segment at once (EP and SP).
func (e *exec) runPipelined() error {
	initial := 1
	if e.c.cfg.Mode == SP {
		initial = e.c.cfg.FixedParallelism
	} else if e.c.cfg.FixedParallelism > 1 {
		initial = e.c.cfg.FixedParallelism
	}
	for _, inst := range e.insts {
		e.startInst(inst, initial)
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
	return nil
}

// runMaterialized executes segments stage-at-a-time in topological
// order: a consumer starts only after all its producers finished, with
// the full intermediate result staged in the exchange inbox.
func (e *exec) runMaterialized() error {
	order, err := e.topoOrder()
	if err != nil {
		return err
	}
	instsBySeg := make(map[int][]*segInst)
	for _, inst := range e.insts {
		instsBySeg[inst.seg.ID] = append(instsBySeg[inst.seg.ID], inst)
	}
	for _, segID := range order {
		for _, inst := range instsBySeg[segID] {
			e.startInst(inst, e.c.cfg.FixedParallelism)
		}
		for _, inst := range instsBySeg[segID] {
			<-inst.done
		}
	}
	return nil
}

// topoOrder sorts segment ids producers-first.
func (e *exec) topoOrder() ([]int, error) {
	indeg := make(map[int]int)
	succ := make(map[int][]int)
	for _, s := range e.p.Segments {
		indeg[s.ID] += 0
	}
	for _, ex := range e.p.Exchanges {
		succ[ex.Producer] = append(succ[ex.Producer], ex.Consumer)
		indeg[ex.Consumer]++
	}
	var queue, order []int
	for _, s := range e.p.Segments {
		if indeg[s.ID] == 0 {
			queue = append(queue, s.ID)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, s := range succ[id] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != len(e.p.Segments) {
		return nil, fmt.Errorf("engine: cyclic segment graph")
	}
	return order, nil
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
