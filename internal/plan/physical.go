package plan

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/iterator"
	"repro/internal/types"
)

// PhysOp is a physical operator template; the engine instantiates one
// iterator tree per node a segment runs on.
type PhysOp interface {
	Schema() *types.Schema
}

// PScan scans the node-local partition of a table, with an optional
// pushed predicate fused into a filter above the scan.
type PScan struct {
	Table *catalog.Table
	Alias string
	Pred  expr.Expr
	Sch   *types.Schema // qualified schema
	// Vectorized reports whether Pred compiles entirely to fused batch
	// kernels (set by the post-lowering annotate pass; Explain only).
	Vectorized bool
}

// Schema implements PhysOp.
func (s *PScan) Schema() *types.Schema { return s.Sch }

// PFilter filters rows.
type PFilter struct {
	Child PhysOp
	Pred  expr.Expr
	// Vectorized reports whether Pred compiles entirely to fused batch
	// kernels (Explain only).
	Vectorized bool
}

// Schema implements PhysOp.
func (f *PFilter) Schema() *types.Schema { return f.Child.Schema() }

// PProject projects expressions.
type PProject struct {
	Child PhysOp
	Exprs []expr.Expr
	Sch   *types.Schema
	// Vectorized reports whether every expression compiles entirely to
	// fused batch kernels (Explain only).
	Vectorized bool
}

// Schema implements PhysOp.
func (p *PProject) Schema() *types.Schema { return p.Sch }

// PHashJoin joins Build and Probe within one segment; either child may
// be a PMerger rooting a network input.
type PHashJoin struct {
	Build, Probe         PhysOp
	BuildKeys, ProbeKeys []expr.Expr
	Sch                  *types.Schema
	// PerBuildRow: the join aggregates its matches per build row with
	// Aggs, whose arguments read the probe schema, and Sch is
	// iterator.PerBuildRowSchema (iterator.NewHashJoinAgg). The lowering
	// sets it for a partial aggregation on the join that groups by build
	// columns; the aggregation above then merges partials.
	PerBuildRow bool
	Aggs        []iterator.AggSpec
	// VecKeys reports whether both key sets, and the aggregate
	// arguments, compile to fused batch kernels (Explain only).
	VecKeys bool
	// WordKey reports whether both keys are one Int64 or Date column,
	// so the join matches them by hash alone (Explain only).
	WordKey bool
}

// Schema implements PhysOp.
func (j *PHashJoin) Schema() *types.Schema { return j.Sch }

// label is what EXPLAIN says the join keys are: one word, matched by
// hash alone, or encoded bytes.
func (j *PHashJoin) label() string {
	if j.WordKey {
		return "word key"
	}
	return "byte key"
}

// aggLabel is what EXPLAIN adds to an aggregating join: what it keeps
// per build row, the match count and its aggregates by function.
func (j *PHashJoin) aggLabel() string {
	if !j.PerBuildRow {
		return ""
	}
	parts := []string{"count"}
	for f := iterator.Sum; f <= iterator.Max; f++ {
		n := 0
		for _, s := range j.Aggs {
			if s.Func == f {
				n++
			}
		}
		switch {
		case n == 1:
			parts = append(parts, fmt.Sprintf("1 %s", f))
		case n > 1:
			parts = append(parts, fmt.Sprintf("%d %ss", n, f))
		}
	}
	return " (per build row: " + strings.Join(parts, ", ") + ")"
}

// PHashAgg aggregates; Algo selects shared/independent/hybrid.
type PHashAgg struct {
	Child    PhysOp
	Keys     []expr.Expr
	KeyNames []string
	Specs    []iterator.AggSpec
	Algo     iterator.AggAlgorithm
	Sch      *types.Schema
	// Partial marks the node-local half of a two-phase aggregation.
	Partial bool
	// VecKeys reports whether the group keys and every aggregate
	// argument compile to fused batch kernels (Explain only).
	VecKeys bool
	// WordKey reports whether the group key packs into one word that is
	// its own hash (expr.NewGroupKeyEncoder; Explain only).
	WordKey bool
}

// Schema implements PhysOp.
func (a *PHashAgg) Schema() *types.Schema { return a.Sch }

// label is what EXPLAIN says the aggregation is: its shape, the
// algorithm, and, with keys, whether they are held as encoded bytes or
// as one word.
func (a *PHashAgg) label() string {
	s := fmt.Sprintf("%d keys, %d aggs, %s", len(a.Keys), len(a.Specs), a.Algo)
	switch {
	case len(a.Keys) == 0:
		return s
	case a.WordKey:
		return s + ", word key"
	}
	return s + ", byte key"
}

// PSort sorts (master side).
type PSort struct {
	Child PhysOp
	Keys  []iterator.SortKey
}

// Schema implements PhysOp.
func (s *PSort) Schema() *types.Schema { return s.Child.Schema() }

// PTopN keeps the N first rows under the sort order.
type PTopN struct {
	Child PhysOp
	Keys  []iterator.SortKey
	N     int64
}

// Schema implements PhysOp.
func (t *PTopN) Schema() *types.Schema { return t.Child.Schema() }

// PLimit keeps the first N rows.
type PLimit struct {
	Child PhysOp
	N     int64
}

// Schema implements PhysOp.
func (l *PLimit) Schema() *types.Schema { return l.Child.Schema() }

// PMerger roots a network input: blocks arriving from the producer
// segment of the given exchange.
type PMerger struct {
	Exchange int
	Sch      *types.Schema
}

// Schema implements PhysOp.
func (m *PMerger) Schema() *types.Schema { return m.Sch }

// OutSpec describes where a segment's output goes.
type OutSpec struct {
	Exchange int
	// PartKeys hash-routes tuples to consumer instances; nil means
	// gather (everything to instance 0).
	PartKeys []expr.Expr
}

// Segment is one segment group template (Section 2.1): an operator tree
// between exchange boundaries, instantiated on every node it runs on.
type Segment struct {
	ID   int
	Root PhysOp
	Out  *OutSpec
	// OnMaster restricts the segment to the master node (final sorts,
	// global aggregation); otherwise it runs on every slave node.
	OnMaster bool
	// OrderPreserving marks segments whose output order matters (sort
	// roots), so the engine uses an order-preserving elastic buffer and
	// a single worker.
	OrderPreserving bool
}

// ExchangeSpec is one exchange edge between segment groups.
type ExchangeSpec struct {
	ID       int
	Producer int // segment ID
	Consumer int // segment ID
	Sch      *types.Schema
}

// Plan is the distributed physical plan.
type Plan struct {
	// Segments are producers-first: every exchange's producer stands
	// before its consumer (fixed by Compile).
	Segments  []*Segment
	Exchanges []*ExchangeSpec
	// Final is the segment whose output is the query result.
	Final *Segment
	// OutputNames are the result column display names.
	OutputNames []string
	// NumParams counts the plan's prepared-statement parameter slots
	// ($n, so the highest n). A plan with NumParams > 0 is a template:
	// it runs with that many argument values beside it (CoerceArgs), which
	// the executor substitutes for the slots as it builds iterators. The
	// plan itself is immutable once compiled and shared by concurrent
	// executions.
	NumParams int
	// paramKinds[i] is the kind $i+1's argument is converted to when
	// paramTyped[i]; both are fixed at compile time (inferParams).
	paramKinds []types.Kind
	paramTyped []bool
}

// Segment returns the segment with the given id, or nil. Plans hold a
// handful of segments, so a scan is cheaper than an id map per query.
func (p *Plan) Segment(id int) *Segment {
	for _, s := range p.Segments {
		if s.ID == id {
			return s
		}
	}
	return nil
}

// String renders the plan for inspection (the EXPLAIN output).
func (p *Plan) String() string {
	return p.Render(Annotations{})
}

// Annotations attaches per-node text to a plan rendering — how EXPLAIN
// ANALYZE decorates the same tree EXPLAIN prints with measured rows,
// times and bytes, without duplicating the renderer. Every callback is
// optional; returned strings are appended verbatim after the line they
// annotate (conventionally "  (rows=… time=…)").
type Annotations struct {
	// Op annotates one operator line.
	Op func(op PhysOp) string
	// Segment annotates a segment header line.
	Segment func(s *Segment) string
	// Out annotates a segment's output line (its exchange, or the
	// result collector).
	Out func(s *Segment) string
}

// Render renders the plan with annotations.
func (p *Plan) Render(a Annotations) string {
	var sb strings.Builder
	for _, s := range p.Segments {
		where := "all-nodes"
		if s.OnMaster {
			where = "master"
		}
		fmt.Fprintf(&sb, "segment %d (%s):%s\n", s.ID, where, annot(a.Segment, s))
		renderOp(&sb, s.Root, 1, a)
		if s.Out != nil {
			kind := "gather"
			if s.Out.PartKeys != nil {
				kind = "repartition"
			}
			fmt.Fprintf(&sb, "  -> %s via exchange %d%s\n", kind, s.Out.Exchange, annot(a.Out, s))
		} else {
			fmt.Fprintf(&sb, "  -> result%s\n", annot(a.Out, s))
		}
	}
	return sb.String()
}

// annot applies an optional annotation callback.
func annot[T any](fn func(T) string, v T) string {
	if fn == nil {
		return ""
	}
	return fn(v)
}

func renderOp(sb *strings.Builder, op PhysOp, depth int, a Annotations) {
	pad := strings.Repeat("  ", depth)
	tail := annot(a.Op, op)
	switch n := op.(type) {
	case *PScan:
		fmt.Fprintf(sb, "%sscan %s", pad, n.Table.Name)
		if n.Pred != nil {
			fmt.Fprintf(sb, " filter %s%s", n.Pred, vecTag(n.Vectorized))
		}
		sb.WriteString(tail)
		sb.WriteByte('\n')
	case *PFilter:
		fmt.Fprintf(sb, "%sfilter %s%s%s\n", pad, n.Pred, vecTag(n.Vectorized), tail)
		renderOp(sb, n.Child, depth+1, a)
	case *PProject:
		fmt.Fprintf(sb, "%sproject (%d exprs)%s%s\n", pad, len(n.Exprs), vecTag(n.Vectorized), tail)
		renderOp(sb, n.Child, depth+1, a)
	case *PHashJoin:
		fmt.Fprintf(sb, "%shash join (%s)%s%s%s\n", pad, n.label(), vecTag(n.VecKeys), n.aggLabel(), tail)
		fmt.Fprintf(sb, "%s  build:\n", pad)
		renderOp(sb, n.Build, depth+2, a)
		fmt.Fprintf(sb, "%s  probe:\n", pad)
		renderOp(sb, n.Probe, depth+2, a)
	case *PHashAgg:
		fmt.Fprintf(sb, "%shash agg (%s)%s%s\n", pad, n.label(), vecTag(n.VecKeys), tail)
		renderOp(sb, n.Child, depth+1, a)
	case *PSort:
		fmt.Fprintf(sb, "%ssort (%d keys)%s\n", pad, len(n.Keys), tail)
		renderOp(sb, n.Child, depth+1, a)
	case *PTopN:
		fmt.Fprintf(sb, "%stop-%d%s\n", pad, n.N, tail)
		renderOp(sb, n.Child, depth+1, a)
	case *PLimit:
		fmt.Fprintf(sb, "%slimit %d%s\n", pad, n.N, tail)
		renderOp(sb, n.Child, depth+1, a)
	case *PMerger:
		fmt.Fprintf(sb, "%smerger (exchange %d)%s\n", pad, n.Exchange, tail)
	}
}

// Walk visits op and its children pre-order (build before probe for
// joins, matching the rendered tree).
func Walk(op PhysOp, fn func(PhysOp)) {
	fn(op)
	for _, c := range Children(op) {
		Walk(c, fn)
	}
}

// Children returns an operator's direct children, rendered order.
func Children(op PhysOp) []PhysOp {
	switch n := op.(type) {
	case *PFilter:
		return []PhysOp{n.Child}
	case *PProject:
		return []PhysOp{n.Child}
	case *PHashJoin:
		return []PhysOp{n.Build, n.Probe}
	case *PHashAgg:
		return []PhysOp{n.Child}
	case *PSort:
		return []PhysOp{n.Child}
	case *PTopN:
		return []PhysOp{n.Child}
	case *PLimit:
		return []PhysOp{n.Child}
	}
	return nil // PScan, PMerger
}

// OpLabel returns an operator's short display name, used for span
// labels and analyzed-plan rows.
func OpLabel(op PhysOp) string {
	switch n := op.(type) {
	case *PScan:
		if n.Pred != nil {
			return "scan+filter " + n.Table.Name
		}
		return "scan " + n.Table.Name
	case *PFilter:
		return "filter"
	case *PProject:
		return "project"
	case *PHashJoin:
		return "hash join"
	case *PHashAgg:
		return "hash agg"
	case *PSort:
		return "sort"
	case *PTopN:
		return "top-n"
	case *PLimit:
		return "limit"
	case *PMerger:
		return fmt.Sprintf("merger ex%d", n.Exchange)
	}
	return fmt.Sprintf("%T", op)
}

// vecTag renders the Explain marker for operators whose expression work
// runs entirely on fused batch kernels.
func vecTag(v bool) string {
	if v {
		return " [vec]"
	}
	return ""
}
