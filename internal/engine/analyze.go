package engine

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/plan"
	"repro/internal/telemetry"
	"repro/internal/types"
)

// ExplainAnalyzeScoped is Exec with Analyze set, under a caller-owned
// scope: the query runs with per-operator instrumentation on and the
// Analysis comes back beside the result. Every number in the analysis
// is read back from the query's telemetry scope — the same counters,
// gauges and events any attached sink observes — so the annotated plan
// cannot drift from the telemetry stream.
func (c *Cluster) ExplainAnalyzeScoped(query string, sc *telemetry.Scope) (*Result, *Analysis, error) {
	res, err := c.Exec(context.Background(), Request{SQL: query, Scope: sc, Analyze: true})
	if err != nil {
		return nil, nil, err
	}
	return res, res.Analysis, nil
}

// analyzeState marks a run as analyzed and holds what EXPLAIN ANALYZE
// needs beyond the query scope's own instruments, which finish reads
// into an Analysis after the run.
type analyzeState struct {
	// spans retains a distributed participant's spans for its snapshot;
	// nil everywhere else.
	spans *telemetry.MemSink
	// perNode holds the per-participant scope snapshots of an analyzed
	// distributed query — the coordinator's own share first (taken before
	// the merge), then every remote snapshot the control plane shipped in
	// time. Nil on single-process runs.
	perNode []*telemetry.ScopeSnapshot
}

// NodeBreakdowns summarizes the per-node snapshots — the shape the
// registry's slow-query log records: each participant's cumulative
// operator rows and busy time, memory peak, and cross-node traffic. Nil
// when the query ran without stats shipping (single-process runs).
func (a *Analysis) NodeBreakdowns() []telemetry.NodeBreakdown {
	if a.perNode == nil {
		return nil
	}
	out := make([]telemetry.NodeBreakdown, 0, len(a.perNode))
	for _, snap := range a.perNode {
		bd := telemetry.NodeBreakdown{
			Node:     snap.Node,
			NetBytes: snap.Counter(telemetry.CtrNetBytes),
		}
		if g, ok := snap.Gauges[telemetry.GaugeMemBytes]; ok {
			bd.MemPeakBytes = g.Peak
		}
		var busy int64
		for name, v := range snap.Counters {
			_, what, ok := parseIDCtr(name, "op.")
			if !ok {
				continue
			}
			switch what {
			case telemetry.OpRows:
				bd.Rows += v
			case telemetry.OpBusyNs, telemetry.OpOpenNs:
				busy += v
			}
		}
		bd.BusyMS = busy / int64(time.Millisecond)
		out = append(out, bd)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// parseIDCtr splits a "<prefix><id>.<what>" counter name (the op.* and
// ex.* families built by telemetry.OpCtr/ExCtr).
func parseIDCtr(name, prefix string) (id int, what string, ok bool) {
	if !strings.HasPrefix(name, prefix) {
		return 0, "", false
	}
	rest := name[len(prefix):]
	dot := strings.IndexByte(rest, '.')
	if dot <= 0 {
		return 0, "", false
	}
	n, err := strconv.Atoi(rest[:dot])
	if err != nil {
		return 0, "", false
	}
	return n, rest[dot+1:], true
}

// attach hooks the state into a starting execution. A distributed
// participant additionally runs span-enabled, so the spans it ships
// put its fragment on the coordinator's trace.
func (az *analyzeState) attach(e *exec) {
	if e.participant() {
		e.scope.EnableSpans()
		az.spans = telemetry.NewMemSink(telemetry.KindSpan)
		e.scope.Attach(az.spans)
	}
}

// finish snapshots the completed execution into an Analysis.
func (az *analyzeState) finish(e *exec) *Analysis {
	an := &Analysis{
		Plan:        e.p,
		Args:        e.args,
		Scope:       e.scope,
		Mode:        e.c.cfg.Mode.String(),
		Nodes:       e.c.cfg.Nodes,
		resultEx:    e.resultExID,
		Duration:    e.scope.Elapsed() - e.startAt,
		ops:         e.ops,
		folded:      foldedOps(e.p),
		master:      e.master,
		dataNodes:   e.dataNodes,
		perNode:     az.perNode,
		exBytes:     map[int]int64{},
		exBlocks:    map[int]int64{},
		exRows:      map[int]int64{},
		exNodeBytes: map[int]map[int]int64{},
		segPeak:     map[string]int64{},
		segMean:     map[string]float64{},
		opMemPk:     map[int]int64{},
		opMemMn:     map[int]float64{},
	}
	sort.Slice(an.perNode, func(i, j int) bool { return an.perNode[i].Node < an.perNode[j].Node })
	// Operator memory: peak from the op.<id>.mem_bytes gauge (written on
	// every reservation), mean from the sampler's 25ms readings; short
	// queries that finished between samples fall back to the peak.
	for _, id := range e.ops {
		pk := e.scope.Gauge(telemetry.OpCtr(id, telemetry.OpMemBytes)).Peak()
		an.opMemPk[id] = pk
		if n := e.opMemN[id]; n > 0 {
			an.opMemMn[id] = e.opMemSum[id] / float64(n)
		} else {
			an.opMemMn[id] = float64(pk)
		}
	}
	// Exchange traffic: the ex.<id>.* counters the fabric's accounting
	// shim wrote, on every transport. Totals come from the query scope —
	// on a distributed run the participants' shares are merged in by now
	// — and the per-node snapshots attribute bytes to the producing node
	// for skew.
	for name, v := range e.scope.CounterSnapshot() {
		ex, what, ok := parseIDCtr(name, "ex.")
		if !ok {
			continue
		}
		switch what {
		case "rows":
			an.exRows[ex] = v
		case "blocks":
			an.exBlocks[ex] = v
		case "bytes":
			an.exBytes[ex] = v
		}
	}
	for _, snap := range az.perNode {
		for name, v := range snap.Counters {
			if ex, what, ok := parseIDCtr(name, "ex."); ok && what == "bytes" {
				if an.exNodeBytes[ex] == nil {
					an.exNodeBytes[ex] = map[int]int64{}
				}
				an.exNodeBytes[ex][snap.Node] = v
			}
		}
	}
	// Worker parallelism: peak from the per-segment worker gauge (set on
	// every expand/shrink), mean from the 25ms parallelism samples.
	// Zero-worker samples are taken after the segment hit its barrier
	// (the sampler outlives individual segments), so they are not part
	// of the segment's execution and are excluded; short queries may
	// finish between samples entirely, in which case the mean falls back
	// to the peak.
	counts := map[string]int{}
	for _, ev := range e.traceSink.Events() {
		for seg, w := range ev.Rec.(telemetry.ParallelismSample).Parallelism {
			if w > 0 {
				an.segMean[seg] += float64(w)
				counts[seg]++
			}
		}
	}
	for _, s := range e.p.Segments {
		name := fmt.Sprintf("S%d", s.ID)
		peak := e.scope.Gauge(telemetry.GaugeSegWorkers(name)).Peak()
		an.segPeak[name] = peak
		if n := counts[name]; n > 0 {
			an.segMean[name] /= float64(n)
		} else {
			an.segMean[name] = float64(peak)
		}
	}
	return an
}

// Analysis is the measured view of one executed plan, rendered by
// EXPLAIN ANALYZE. All figures are cluster-wide totals: the plan's
// operator templates are instantiated once per node, and the instances
// share counters keyed by plan-node id.
type Analysis struct {
	Plan *plan.Plan
	// Args are the coerced values the run substituted for the plan's $n
	// slots ($1 is Args[0]); nil for a plan without slots.
	Args  []types.Value
	Scope *telemetry.Scope
	Mode  string
	Nodes int
	// Duration is the wall-clock execution time.
	Duration time.Duration
	// CacheState reports whether the plan came from the plan cache
	// ("hit" / "miss"); empty when the request carried its own Plan.
	CacheState string

	ops map[plan.PhysOp]int
	// folded holds the operators that ran inside their parents and have
	// no counters of their own (foldedProject).
	folded   map[plan.PhysOp]bool
	resultEx int           // the run's derived result-collector exchange id
	exBytes  map[int]int64 // exchange id → bytes crossing node boundaries
	exBlocks map[int]int64
	exRows   map[int]int64
	// exNodeBytes attributes exchange bytes to the producing node
	// (distributed analyzed runs only) — the input to per-exchange skew.
	exNodeBytes map[int]map[int]int64
	segPeak     map[string]int64
	segMean     map[string]float64
	opMemPk     map[int]int64
	opMemMn     map[int]float64
	// master/dataNodes echo the run's placement; perNode holds each
	// participant's scope snapshot (sorted by node), nil outside
	// distributed analyzed runs.
	master    int
	dataNodes []int
	perNode   []*telemetry.ScopeSnapshot
}

// PerNode returns each participant's scope snapshot, sorted by node id
// — the coordinator's own share included. Nil unless the query ran
// distributed with stats shipping (an analyzed coordinated Request).
func (a *Analysis) PerNode() []*telemetry.ScopeSnapshot {
	return a.perNode
}

// nodeSnap finds one node's snapshot, or nil.
func (a *Analysis) nodeSnap(node int) *telemetry.ScopeSnapshot {
	for _, snap := range a.perNode {
		if snap.Node == node {
			return snap
		}
	}
	return nil
}

// NodeOpStats is OpStats restricted to one participant: the operator's
// rows, blocks and busy time on that node alone, read from the node's
// shipped snapshot. ok is false when the query had no per-node stats or
// the node never reported.
func (a *Analysis) NodeOpStats(op plan.PhysOp, node int) (rows, blocks int64, busy time.Duration, ok bool) {
	id, okID := a.ops[op]
	snap := a.nodeSnap(node)
	if !okID || snap == nil {
		return 0, 0, 0, false
	}
	return snap.Counter(telemetry.OpCtr(id, telemetry.OpRows)),
		snap.Counter(telemetry.OpCtr(id, telemetry.OpBlocks)),
		time.Duration(snap.Counter(telemetry.OpCtr(id, telemetry.OpBusyNs)) +
			snap.Counter(telemetry.OpCtr(id, telemetry.OpOpenNs))),
		true
}

// producersOf lists the nodes producing into a segment's output
// exchange — the placement rule nodesOf uses, rederived from the
// analysis's recorded placement.
func (a *Analysis) producersOf(s *plan.Segment) []int {
	if s.OnMaster {
		return []int{a.master}
	}
	return a.dataNodes
}

// ExchangeSkew reports the max/min ratio of bytes produced into the
// exchange across its producing nodes — the paper's skew signal for
// adaptive repartitioning. +Inf means at least one producer sent
// nothing while another did. ok is false without per-node stats, with
// fewer than two producers, or when no producer sent anything.
func (a *Analysis) ExchangeSkew(ex int, producers []int) (ratio float64, ok bool) {
	if len(a.perNode) < 2 || len(producers) < 2 {
		return 0, false
	}
	m := a.exNodeBytes[ex]
	if m == nil {
		return 0, false
	}
	var mx, mn int64 = -1, -1
	for _, n := range producers {
		v := m[n]
		if mx < 0 || v > mx {
			mx = v
		}
		if mn < 0 || v < mn {
			mn = v
		}
	}
	if mx <= 0 {
		return 0, false
	}
	if mn == 0 {
		return math.Inf(1), true
	}
	return float64(mx) / float64(mn), true
}

// OpID returns the instrumentation id of a plan operator — the <id> in
// its op.<id>.* scope counters.
func (a *Analysis) OpID(op plan.PhysOp) (int, bool) {
	id, ok := a.ops[op]
	return id, ok
}

// OpStats returns an operator's measured totals, straight from the
// scope counters the execution wrote. busy is cumulative worker time
// inside the operator's Open and Next — Open included because blocking
// operators (hash agg, hash join build, sort) do their real work
// draining the child during Open, with Next just replaying results. A
// folded projection ran no iterator and wrote no counter: all zero.
func (a *Analysis) OpStats(op plan.PhysOp) (rows, blocks int64, busy time.Duration) {
	id, ok := a.ops[op]
	if !ok {
		return 0, 0, 0
	}
	return a.Scope.Counter(telemetry.OpCtr(id, telemetry.OpRows)).Load(),
		a.Scope.Counter(telemetry.OpCtr(id, telemetry.OpBlocks)).Load(),
		time.Duration(a.Scope.Counter(telemetry.OpCtr(id, telemetry.OpBusyNs)).Load() +
			a.Scope.Counter(telemetry.OpCtr(id, telemetry.OpOpenNs)).Load())
}

// ScanParts returns how many table partitions a scan read, of the
// data nodes' it was placed on. ok is false for an operator that is not
// a scan.
func (a *Analysis) ScanParts(op plan.PhysOp) (read, of int64, ok bool) {
	id, okID := a.ops[op]
	if _, isScan := op.(*plan.PScan); !isScan || !okID {
		return 0, 0, false
	}
	return a.Scope.Counter(telemetry.OpCtr(id, telemetry.OpPartsRead)).Load(), int64(len(a.dataNodes)), true
}

// OpMemStats returns an operator's tracked working-memory high-water
// mark and sampled mean, in bytes, cluster-wide across its per-node
// instances. Both are zero for stateless (streaming) operators.
func (a *Analysis) OpMemStats(op plan.PhysOp) (peak int64, mean float64) {
	id, ok := a.ops[op]
	if !ok {
		return 0, 0
	}
	return a.opMemPk[id], a.opMemMn[id]
}

// ExchangeStats returns an exchange's measured cross-node traffic.
// Co-located producer/consumer instances short-circuit locally and do
// not count (matching the net.bytes counter).
func (a *Analysis) ExchangeStats(ex int) (rows, blocks, bytes int64) {
	return a.exRows[ex], a.exBlocks[ex], a.exBytes[ex]
}

// ExchangeStall returns the cumulative time this exchange's senders
// spent waiting for credit from its receivers (a full inbox withholds
// it) — the TCP fabric's ex.<id>.stall_ns counter. Always zero on the
// in-process fabric, which has no send windows.
func (a *Analysis) ExchangeStall(ex int) time.Duration {
	return time.Duration(a.Scope.Counter(telemetry.ExCtr(ex, "stall_ns")).Load())
}

// SegmentWorkers returns a segment's worker-parallelism peak and mean.
func (a *Analysis) SegmentWorkers(seg *plan.Segment) (peak int64, mean float64) {
	name := fmt.Sprintf("S%d", seg.ID)
	return a.segPeak[name], a.segMean[name]
}

// selfTime is an operator's busy time minus its children's: the time
// workers spent in this operator itself. Busy time is cumulative across
// concurrent workers, so totals can exceed wall time. A folded child ran
// as part of its parent, so its own children are subtracted instead.
func (a *Analysis) selfTime(op plan.PhysOp) time.Duration {
	_, _, busy := a.OpStats(op)
	for _, c := range plan.Children(op) {
		if a.folded[c] {
			c = plan.Children(c)[0]
		}
		_, _, cb := a.OpStats(c)
		busy -= cb
	}
	if busy < 0 {
		busy = 0
	}
	return busy
}

// foldedOps lists the operators of p that run inside their parents.
func foldedOps(p *plan.Plan) map[plan.PhysOp]bool {
	out := map[plan.PhysOp]bool{}
	for _, s := range p.Segments {
		plan.Walk(s.Root, func(op plan.PhysOp) {
			if agg, ok := op.(*plan.PHashAgg); ok {
				if p := foldedProject(agg); p != nil {
					out[p] = true
				}
			}
		})
	}
	return out
}

// Render renders the analyzed plan: the EXPLAIN tree with a measurement
// suffix on every line, followed — for distributed analyzed runs — by a
// per-node section breaking every operator's rows/time/mem down by
// participant, the cluster view the snapshot shipping exists for.
func (a *Analysis) Render() string {
	head := fmt.Sprintf("mode=%s nodes=%d duration=%v",
		a.Mode, a.Nodes, a.Duration.Round(time.Microsecond))
	if a.CacheState != "" {
		head += " plan-cache=" + a.CacheState
	}
	if len(a.Args) > 0 {
		// The plan renders its slots as $n; the values follow in EXECUTE's
		// argument syntax, so the run can be repeated from this output.
		lits := make([]string, len(a.Args))
		for i, v := range a.Args {
			lits[i] = sqlLiteral(v)
		}
		head += " args=(" + strings.Join(lits, ", ") + ")"
	}
	head += "\n"
	out := head + a.Plan.Render(plan.Annotations{
		Op: func(op plan.PhysOp) string {
			if a.folded[op] {
				return "  (folded into the aggregation)"
			}
			rows, blocks, busy := a.OpStats(op)
			s := fmt.Sprintf("  (rows=%d est=%d blocks=%d time=%v self=%v",
				rows, op.Estimate().Rows, blocks,
				busy.Round(time.Microsecond),
				a.selfTime(op).Round(time.Microsecond))
			if read, of, ok := a.ScanParts(op); ok {
				s += fmt.Sprintf(" parts=%d/%d", read, of)
			}
			if peak, mean := a.OpMemStats(op); peak > 0 {
				s += fmt.Sprintf(" mem peak=%dB mean=%.0fB", peak, mean)
			}
			return s + ")"
		},
		Segment: func(s *plan.Segment) string {
			peak, mean := a.SegmentWorkers(s)
			return fmt.Sprintf("  (workers peak=%d mean=%.1f)", peak, mean)
		},
		Out: func(s *plan.Segment) string {
			ex := a.resultEx
			if s.Out != nil {
				ex = s.Out.Exchange
			}
			rows, blocks, bytes := a.ExchangeStats(ex)
			line := fmt.Sprintf("  (rows=%d blocks=%d net=%dB", rows, blocks, bytes)
			if stall := a.ExchangeStall(ex); stall > 0 {
				line += fmt.Sprintf(" stall=%v", stall.Round(time.Microsecond))
			}
			if skew, ok := a.ExchangeSkew(ex, a.producersOf(s)); ok {
				if math.IsInf(skew, 1) {
					line += " skew=inf"
				} else {
					line += fmt.Sprintf(" skew=%.1fx", skew)
				}
			}
			return line + ")"
		},
	})
	if a.perNode != nil {
		out += a.renderPerNode()
	}
	return out
}

// sqlLiteral renders v as the SQL literal that denotes it: what EXECUTE
// takes as an argument.
func sqlLiteral(v types.Value) string {
	switch {
	case v.Null:
		return "NULL"
	case v.Kind == types.Float64:
		s := strconv.FormatFloat(v.F, 'f', -1, 64)
		if !strings.ContainsAny(s, ".NI") { // the lexer reads a number without a dot as an integer
			s += ".0"
		}
		return s
	case v.Kind == types.String:
		return "'" + strings.NewReplacer(`\`, `\\`, `'`, `\'`).Replace(v.S) + "'"
	case v.Kind == types.Date:
		return "DATE '" + types.FormatDate(v.I) + "'"
	}
	return strconv.FormatInt(v.I, 10)
}

// renderPerNode renders the per-node section: one line per instrumented
// operator, the operator's share on every reporting node side by side.
func (a *Analysis) renderPerNode() string {
	var ops []plan.PhysOp
	seen := map[int]bool{}
	for _, s := range a.Plan.Segments {
		plan.Walk(s.Root, func(op plan.PhysOp) {
			if id, ok := a.ops[op]; ok && !seen[id] && !a.folded[op] {
				seen[id] = true
				ops = append(ops, op)
			}
		})
	}
	sort.Slice(ops, func(i, j int) bool { return a.ops[ops[i]] < a.ops[ops[j]] })

	var b strings.Builder
	b.WriteString("per-node:\n")
	for _, op := range ops {
		id := a.ops[op]
		fmt.Fprintf(&b, "  [op %d %s]", id, plan.OpLabel(op))
		for i, snap := range a.perNode {
			rows, _, busy, _ := a.NodeOpStats(op, snap.Node)
			if i > 0 {
				b.WriteString(" |")
			}
			fmt.Fprintf(&b, " node%d rows=%d time=%v", snap.Node, rows, busy.Round(time.Microsecond))
			if g, ok := snap.Gauges[telemetry.OpCtr(id, telemetry.OpMemBytes)]; ok && g.Peak > 0 {
				fmt.Fprintf(&b, " mem=%dB", g.Peak)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
