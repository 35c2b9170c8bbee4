package sim

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
)

// Compile lowers a distributed physical plan into a simulation graph,
// estimating per-stage costs and cardinalities from catalog statistics.
// This is how the cluster-scale experiments run the paper's TPC-H SF100
// and SSE workloads: the real SQL frontend and planner produce the
// segment graph, and only the execution substrate is simulated.
//
// Per-tuple cost constants are calibrated against the real operators
// (see the Figure 8 benchmark, which measures them); cardinality
// estimation uses textbook selectivity heuristics plus the column NDVs
// registered by the workload generators.
func Compile(p *plan.Plan, cat *catalog.Catalog, nodes int) (*Graph, error) {
	c := &compiler{
		cat:   cat,
		nodes: nodes,
		g:     &Graph{},
		exMap: make(map[int]int),
	}
	// Create sim edges for every plan exchange up front.
	for _, ex := range p.Exchanges {
		id := len(c.g.Edges)
		c.exMap[ex.ID] = id
		c.g.Edges = append(c.g.Edges, &Edge{
			ID:            id,
			BytesPerTuple: float64(ex.Sch.Stride()) + 2, // + frame amortization
		})
	}
	segIdx := make(map[int]int)
	for _, seg := range p.Segments {
		sg, outRows, err := c.compileSegment(seg)
		if err != nil {
			return nil, err
		}
		segIdx[seg.ID] = sg.ID
		c.g.Groups = append(c.g.Groups, sg)
		if seg.Out != nil {
			e := c.g.Edges[c.exMap[seg.Out.Exchange]]
			e.Gather = seg.Out.PartKeys == nil
			// Bound pipelined queues to ~32 MB of staging per consumer.
			e.QueueCapTuples = 32e6 / e.BytesPerTuple
			c.edgeRows(seg.Out.Exchange, outRows)
		}
	}
	// Resolve edge endpoints.
	for _, ex := range p.Exchanges {
		e := c.g.Edges[c.exMap[ex.ID]]
		e.From = segIdx[ex.Producer]
		e.To = segIdx[ex.Consumer]
	}
	return c.g, c.g.Validate()
}

// Operator cost constants: core-seconds per tuple at parallelism 1.
// Calibrated to the same order as the real operators measured by the
// Figure 8 benchmark on commodity hardware.
// Measured with cmd/calibrate against this repository's row-wise
// interpreted operators (Appendix iterators, no code generation):
// filter chains land at ~350-400 ns/tuple and join probe at ~700-800
// ns/tuple on commodity hardware, which these constants decompose.
const (
	costScan      = 60e-9
	costPredicate = 250e-9 // per comparison conjunct (interpreted eval)
	costLike      = 500e-9 // wildcard matching (S-Q1's compute bound)
	costProject   = 60e-9  // per expression
	costHashBuild = 500e-9
	costHashProbe = 500e-9
	costAggUpdate = 400e-9
	costSortTuple = 700e-9
	costTopN      = 150e-9
)

type compiler struct {
	cat   *catalog.Catalog
	nodes int
	g     *Graph
	exMap map[int]int // plan exchange id → sim edge index

	edgeTotRows map[int]float64
}

func (c *compiler) edgeRows(planEx int, rows float64) {
	if c.edgeTotRows == nil {
		c.edgeTotRows = make(map[int]float64)
	}
	c.edgeTotRows[planEx] = rows
}

// est carries the estimation state of a dataflow chain within a segment.
type est struct {
	stages []Stage // completed (build) stages, in execution order

	// current streaming chain
	srcEdge   int     // -1: local
	localRows float64 // per node
	cost      float64 // per source tuple
	memBytes  float64
	sel       float64 // cumulative output/input
	rowsOut   float64 // cluster-wide rows emitted by the chain
	width     float64
}

func (c *compiler) compileSegment(seg *plan.Segment) (*SegGroup, float64, error) {
	e, err := c.walk(seg.Root)
	if err != nil {
		return nil, 0, err
	}
	// Terminal stage: the streaming chain plus the segment output.
	final := Stage{
		Name:             "stream",
		SourceEdge:       e.srcEdge,
		LocalRows:        e.localRows,
		CostPerTuple:     maxf(e.cost, 1e-9),
		MemBytesPerTuple: maxf(e.memBytes, 16),
		Selectivity:      e.sel,
		OutEdge:          -1,
	}
	if seg.Out != nil {
		final.OutEdge = c.exMap[seg.Out.Exchange]
	} else {
		final.ToResult = true
		final.OutEdge = -1
	}
	if e.emitAtEnd {
		final.EmitAtEnd = true
		final.EmitRows = e.emitRows
		final.StateBytesPerTuple = e.stateBytes
	}
	stages := append(e.stages, final)
	sg := &SegGroup{
		ID:         len(c.g.Groups),
		Name:       fmt.Sprintf("S%d", seg.ID),
		Stages:     stages,
		OnAllNodes: !seg.OnMaster,
	}
	return sg, e.rowsOut, nil
}

func (c *compiler) walk(op plan.PhysOp) (*walkEst, error) {
	switch n := op.(type) {
	case *plan.PScan:
		rows := float64(n.Table.Stats.Rows)
		e := &walkEst{est: est{
			srcEdge:   -1,
			localRows: rows / float64(c.nodes),
			cost:      costScan,
			memBytes:  float64(n.Sch.Stride()),
			sel:       1,
			rowsOut:   rows,
			width:     float64(n.Sch.Stride()),
		}}
		if n.Pred != nil {
			e.cost += c.predCost(n.Pred)
			s := c.predSel(n.Pred)
			e.sel *= s
			e.rowsOut *= s
		}
		return e, nil

	case *plan.PMerger:
		simEdge := c.exMap[n.Exchange]
		rows := c.edgeTotRows[n.Exchange]
		return &walkEst{est: est{
			srcEdge:  simEdge,
			cost:     1e-9,
			memBytes: float64(n.Sch.Stride()),
			sel:      1,
			rowsOut:  rows,
			width:    float64(n.Sch.Stride()),
		}}, nil

	case *plan.PFilter:
		e, err := c.walk(n.Child)
		if err != nil {
			return nil, err
		}
		e.cost += c.predCost(n.Pred) * maxf(e.sel, 0.01)
		s := c.predSel(n.Pred)
		e.sel *= s
		e.rowsOut *= s
		return e, nil

	case *plan.PProject:
		e, err := c.walk(n.Child)
		if err != nil {
			return nil, err
		}
		e.cost += costProject * float64(len(n.Exprs)) * maxf(e.sel, 0.01)
		e.width = float64(n.Sch.Stride())
		return e, nil

	case *plan.PHashJoin:
		build, err := c.walk(n.Build)
		if err != nil {
			return nil, err
		}
		probe, err := c.walk(n.Probe)
		if err != nil {
			return nil, err
		}
		// The build chain becomes a build stage of this segment: its
		// streaming work plus the hash-table insertion, retaining state.
		buildStage := Stage{
			Name:               "build",
			SourceEdge:         build.srcEdge,
			LocalRows:          build.localRows,
			CostPerTuple:       build.cost + costHashBuild*maxf(build.sel, 0.01),
			MemBytesPerTuple:   maxf(build.memBytes, 16),
			Selectivity:        0,
			OutEdge:            -1,
			StateBytesPerTuple: build.width * maxf(build.sel, 0.01),
		}
		stages := append(build.stages, buildStage)

		// The probe chain continues streaming with probe cost. Join
		// fan-out: surviving build rows divided by the join key's
		// distinct values — ~1 for key/foreign-key joins, >1 when many
		// build rows share a key (the SSE heavy-account joins).
		keyCard := 1.0
		for _, k := range n.BuildKeys {
			keyCard *= float64(c.keyNDV(k))
		}
		buildBase := c.baseRows(n.Build)
		if keyCard > buildBase && buildBase > 0 {
			keyCard = buildBase
		}
		joinSel := 1.0
		if keyCard > 0 {
			joinSel = minf(build.rowsOut/keyCard, 100)
		}
		probe.stages = append(stages, probe.stages...)
		probe.cost += costHashProbe * maxf(probe.sel, 0.01)
		probe.sel *= joinSel
		probe.rowsOut *= joinSel
		probe.width = float64(n.Sch.Stride())
		probe.memBytes += 32 // hash-table lookups
		return probe, nil

	case *plan.PHashAgg:
		e, err := c.walk(n.Child)
		if err != nil {
			return nil, err
		}
		e.cost += costAggUpdate * maxf(e.sel, 0.01)
		groups := c.groupEstimate(n, e.rowsOut)
		e.emitAtEnd = true
		e.emitRows = groups / float64(c.nodes)
		e.stateBytes = float64(n.Sch.Stride()) * minf(groups/maxf(e.rowsOut, 1), 1)
		if e.rowsOut > 0 {
			e.sel *= minf(groups/e.rowsOut, 1)
		}
		e.rowsOut = groups
		e.width = float64(n.Sch.Stride())
		return e, nil

	case *plan.PSort:
		e, err := c.walk(n.Child)
		if err != nil {
			return nil, err
		}
		e.cost += costSortTuple * maxf(e.sel, 0.01)
		e.emitAtEnd = true
		e.emitRows = e.rowsOut
		e.stateBytes = e.width
		return e, nil

	case *plan.PTopN:
		e, err := c.walk(n.Child)
		if err != nil {
			return nil, err
		}
		e.cost += costTopN * maxf(e.sel, 0.01)
		e.emitAtEnd = true
		e.emitRows = float64(n.N)
		e.rowsOut = float64(n.N)
		return e, nil

	case *plan.PLimit:
		e, err := c.walk(n.Child)
		if err != nil {
			return nil, err
		}
		if e.rowsOut > float64(n.N) {
			e.rowsOut = float64(n.N)
		}
		return e, nil
	}
	return nil, fmt.Errorf("sim: cannot compile %T", op)
}

// walkEst wraps est with blocking-emission fields.
type walkEst struct {
	est
	emitAtEnd  bool
	emitRows   float64
	stateBytes float64
}

// baseRows finds the unfiltered base-table cardinality under a subtree
// (for FK join selectivity).
func (c *compiler) baseRows(op plan.PhysOp) float64 {
	switch n := op.(type) {
	case *plan.PScan:
		return float64(n.Table.Stats.Rows)
	case *plan.PFilter:
		return c.baseRows(n.Child)
	case *plan.PProject:
		return c.baseRows(n.Child)
	case *plan.PHashJoin:
		return c.baseRows(n.Probe)
	case *plan.PHashAgg:
		return c.baseRows(n.Child)
	case *plan.PMerger:
		return c.edgeTotRows[n.Exchange]
	}
	return 0
}

// groupEstimate guesses a group-by cardinality from key NDVs.
func (c *compiler) groupEstimate(agg *plan.PHashAgg, rowsIn float64) float64 {
	if len(agg.Keys) == 0 {
		return float64(c.nodes) // one partial group per node
	}
	g := 1.0
	for _, k := range agg.Keys {
		g *= float64(c.keyNDV(k))
	}
	cap := maxf(rowsIn, 1)
	if len(agg.Keys) > 1 {
		// Multi-key group-bys are correlated in practice; damp the
		// independence assumption.
		cap = maxf(rowsIn/3, 1)
	}
	return minf(g, cap)
}

func (c *compiler) keyNDV(k expr.Expr) int64 {
	switch e := k.(type) {
	case *expr.Col:
		if v, ok := c.cat.ColNDV(e.Name); ok {
			return v
		}
		return 1000
	case *expr.Extract:
		if e.Part == expr.Year {
			return 7
		}
		return 12
	}
	return 100
}

// predCost estimates the per-tuple evaluation cost of a predicate.
func (c *compiler) predCost(e expr.Expr) float64 {
	switch n := e.(type) {
	case *expr.And:
		sum := 0.0
		for _, t := range n.Terms {
			sum += c.predCost(t)
		}
		return sum
	case *expr.Or:
		sum := 0.0
		for _, t := range n.Terms {
			sum += c.predCost(t)
		}
		return sum
	case *expr.Not:
		return c.predCost(n.E)
	case *expr.Like:
		return costLike
	case *expr.Between:
		return 2 * costPredicate
	case *expr.In:
		return costPredicate * float64(len(n.List))
	default:
		return costPredicate
	}
}

// predSel estimates predicate selectivity with textbook heuristics.
func (c *compiler) predSel(e expr.Expr) float64 {
	switch n := e.(type) {
	case *expr.And:
		s := 1.0
		for _, t := range n.Terms {
			s *= c.predSel(t)
		}
		return s
	case *expr.Or:
		s := 0.0
		for _, t := range n.Terms {
			s += c.predSel(t)
		}
		return minf(s, 1)
	case *expr.Not:
		return clamp01(1 - c.predSel(n.E))
	case *expr.Cmp:
		if n.Op == expr.EQ {
			// Equality: 1/NDV of the column side when known.
			if col, ok := n.L.(*expr.Col); ok {
				return 1 / maxf(float64(c.keyNDV(col)), 2)
			}
			if col, ok := n.R.(*expr.Col); ok {
				return 1 / maxf(float64(c.keyNDV(col)), 2)
			}
			return 0.01
		}
		return 0.3
	case *expr.Like:
		if n.Negate {
			return 0.98
		}
		return 0.05
	case *expr.Between:
		return 0.15
	case *expr.In:
		return minf(0.05*float64(len(n.List)), 1)
	}
	return 0.5
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func clamp01(v float64) float64 { return minf(maxf(v, 0.01), 1) }

var _ = types.Kind(0) // reserve types import for width calculations
