package plan

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/iterator"
	"repro/internal/sql"
	"repro/internal/types"
)

// Compile parses, binds and lowers a SQL query into a distributed plan.
func Compile(query string, cat *catalog.Catalog) (*Plan, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	return CompileStmt(stmt, cat)
}

// CompileStmt binds and lowers an already-parsed SELECT — the prepared
// statement path, where parsing happened once at PREPARE time.
func CompileStmt(stmt *sql.SelectStmt, cat *catalog.Catalog) (*Plan, error) {
	logical, err := Build(stmt, cat)
	if err != nil {
		return nil, err
	}
	return Lower(logical)
}

// Lower converts a logical plan into the distributed segment graph. The
// distribution rules follow the paper's setting: every base table is
// hash-partitioned across the slave nodes; joins repartition whichever
// sides are not already partitioned on their join key; aggregations
// repartition their raw input on the group keys and aggregate on the
// receiving side (the Figure 1(b) plan), switching to node-local
// partial aggregation when the input is already co-partitioned or the
// estimated group count is small; sorts, top-N and limits finish on the
// master.
func Lower(root Logical) (*Plan, error) {
	return LowerOpts(root, Options{})
}

// Options tunes plan lowering.
type Options struct {
	// PartialAgg inserts node-local partial aggregation before the
	// repartition (an optimization CLAIMS does not apply: Figure 1(b)
	// repartitions the raw join output). Off by default for paper
	// fidelity; the ablation benchmark measures its effect.
	PartialAgg bool
}

// LowerOpts is Lower with explicit options.
func LowerOpts(root Logical, opts Options) (*Plan, error) {
	lw := &lowerer{opts: opts}
	phys, prop, err := lw.lower(root)
	if err != nil {
		return nil, err
	}
	final := lw.finishSegment(phys, nil, prop.gathered)
	lw.plan.Final = final
	lw.plan.OutputNames = outputNames(root)
	for _, seg := range lw.plan.Segments {
		annotateVec(seg.Root)
	}
	if err := lw.plan.inferParams(); err != nil {
		return nil, err
	}
	if err := lw.plan.orderSegments(); err != nil {
		return nil, err
	}
	return &lw.plan, nil
}

// orderSegments leaves p.Segments producers-first: every exchange's
// producer stands before its consumer, so an executor that runs one
// segment at a time (materialized execution, the serial driver) just
// ranges over the plan. The order is fixed here, once per compiled
// plan, and a plan is never copied afterwards. Lowering
// closes producers before their consumers, which makes this a
// verification pass for the planner's own output (the sort is stable),
// but the executors rely on the property, so it is established rather
// than assumed — and a dangling or cyclic exchange graph is rejected at
// compile time instead of wedging a query.
func (p *Plan) orderSegments() error {
	for _, ex := range p.Exchanges {
		if p.Segment(ex.Producer) == nil || p.Segment(ex.Consumer) == nil {
			return fmt.Errorf("plan: exchange %d is dangling", ex.ID)
		}
	}
	ordered := make([]*Segment, 0, len(p.Segments))
	placed := make(map[int]bool, len(p.Segments))
	for len(ordered) < len(p.Segments) {
		before := len(ordered)
		for _, seg := range p.Segments {
			if placed[seg.ID] {
				continue
			}
			ready := true
			for _, ex := range p.Exchanges {
				if ex.Consumer == seg.ID && !placed[ex.Producer] {
					ready = false
					break
				}
			}
			if ready {
				placed[seg.ID] = true
				ordered = append(ordered, seg)
			}
		}
		if len(ordered) == before {
			return fmt.Errorf("plan: exchange graph is cyclic")
		}
	}
	p.Segments = ordered
	return nil
}

// annotateVec records, per operator, whether its expression work
// compiles entirely to fused batch kernels — the vectorization marks
// Explain output renders as [vec]. Purely informational: the engine
// compiles its own kernels at iterator construction.
func annotateVec(op PhysOp) {
	switch n := op.(type) {
	case *PScan:
		if n.Pred != nil {
			n.Vectorized = expr.PredVectorized(n.Pred, n.Sch)
		}
	case *PFilter:
		annotateVec(n.Child)
		n.Vectorized = expr.PredVectorized(n.Pred, n.Child.Schema())
	case *PProject:
		annotateVec(n.Child)
		n.Vectorized = expr.ProjVectorized(n.Exprs, n.Child.Schema())
	case *PHashJoin:
		annotateVec(n.Build)
		annotateVec(n.Probe)
		benc := expr.NewBatchKeyEncoder(n.BuildKeys, n.Build.Schema())
		penc := expr.NewBatchKeyEncoder(n.ProbeKeys, n.Probe.Schema())
		n.VecKeys, n.WordKey = benc.Vectorized() && penc.Vectorized(), benc.Word() && penc.Word()
		for _, s := range n.Aggs {
			if s.Arg != nil && !expr.CompileBatch(s.Arg, n.Probe.Schema()).Fused() {
				n.VecKeys = false
			}
		}
	case *PHashAgg:
		annotateVec(n.Child)
		inSch := n.Child.Schema()
		enc := expr.NewGroupKeyEncoder(n.Keys, inSch)
		n.VecKeys, n.WordKey = enc.Vectorized(), enc.Word()
		for _, s := range n.Specs {
			if s.Arg != nil && !expr.CompileBatch(s.Arg, inSch).Fused() {
				n.VecKeys = false
			}
		}
	case *PSort:
		annotateVec(n.Child)
	case *PTopN:
		annotateVec(n.Child)
	case *PLimit:
		annotateVec(n.Child)
	}
}

// partProp is the partitioning property of a physical subtree.
type partProp struct {
	// cols is the hash-partition key as qualified column names; nil
	// when the partitioning is unknown.
	cols []string
	// gathered marks data resident on the master only.
	gathered bool
}

func (p partProp) subsetOf(keyCols []string) bool {
	if len(p.cols) == 0 {
		return false
	}
	for _, c := range p.cols {
		found := false
		for _, k := range keyCols {
			if c != "" && c == k {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

type lowerer struct {
	plan    Plan
	opts    Options
	nextSeg int
	nextEx  int
}

// finishSegment closes a physical tree into a segment and registers it.
func (lw *lowerer) finishSegment(root PhysOp, out *OutSpec, onMaster bool) *Segment {
	seg := &Segment{ID: lw.nextSeg, Root: root, Out: out, OnMaster: onMaster}
	if _, isSort := root.(*PSort); isSort {
		seg.OrderPreserving = true
	}
	lw.nextSeg++
	lw.plan.Segments = append(lw.plan.Segments, seg)
	// Resolve consumer ids of every exchange whose merger lives here.
	assignConsumers(root, seg.ID, lw.plan.Exchanges)
	if out != nil {
		for _, ex := range lw.plan.Exchanges {
			if ex.ID == out.Exchange {
				ex.Producer = seg.ID
			}
		}
	}
	return seg
}

func assignConsumers(op PhysOp, segID int, exchanges []*ExchangeSpec) {
	switch n := op.(type) {
	case *PMerger:
		for _, ex := range exchanges {
			if ex.ID == n.Exchange {
				ex.Consumer = segID
			}
		}
	case *PFilter:
		assignConsumers(n.Child, segID, exchanges)
	case *PProject:
		assignConsumers(n.Child, segID, exchanges)
	case *PHashJoin:
		assignConsumers(n.Build, segID, exchanges)
		assignConsumers(n.Probe, segID, exchanges)
	case *PHashAgg:
		assignConsumers(n.Child, segID, exchanges)
	case *PSort:
		assignConsumers(n.Child, segID, exchanges)
	case *PTopN:
		assignConsumers(n.Child, segID, exchanges)
	case *PLimit:
		assignConsumers(n.Child, segID, exchanges)
	}
}

// cut closes the subtree into a producer segment shipping into a new
// exchange, and returns the consumer-side merger. partKeys nil = gather.
func (lw *lowerer) cut(child PhysOp, partKeys []expr.Expr, fromMaster bool) *PMerger {
	ex := &ExchangeSpec{ID: lw.nextEx, Sch: child.Schema(), Producer: -1, Consumer: -1}
	lw.nextEx++
	lw.plan.Exchanges = append(lw.plan.Exchanges, ex)
	lw.finishSegment(child, &OutSpec{Exchange: ex.ID, PartKeys: partKeys}, fromMaster)
	return &PMerger{Exchange: ex.ID, Sch: child.Schema(), Est: child.Estimate()}
}

func (lw *lowerer) lower(l Logical) (PhysOp, partProp, error) {
	switch n := l.(type) {
	case *LScan:
		prop := partProp{}
		for _, idx := range n.Table.PartKey {
			prop.cols = append(prop.cols, n.sch.Cols[idx].Name)
		}
		return &PScan{Table: n.Table, Alias: n.Alias, Pred: n.Pred, Sch: n.sch, Est: n.Est}, prop, nil

	case *derived:
		child, prop, err := lw.lower(n.child)
		if err != nil {
			return nil, prop, err
		}
		// Rename the child's output under the derived alias: positions
		// are unchanged, so an identity projection suffices.
		exprs := make([]expr.Expr, n.sch.NumCols())
		for i := range exprs {
			exprs[i] = expr.NewCol(i, n.sch.Cols[i].Name)
		}
		// The partition property's column names change with the rename.
		newProp := partProp{gathered: prop.gathered}
		for _, c := range prop.cols {
			for i, old := range n.child.Schema().Cols {
				if old.Name == c {
					newProp.cols = append(newProp.cols, n.sch.Cols[i].Name)
				}
			}
		}
		return &PProject{Child: child, Exprs: exprs, Sch: n.sch, Est: n.Est}, newProp, nil

	case *LFilter:
		child, prop, err := lw.lower(n.Child)
		if err != nil {
			return nil, prop, err
		}
		return &PFilter{Child: child, Pred: n.Pred, Est: n.Est}, prop, nil

	case *LProject:
		child, prop, err := lw.lower(n.Child)
		if err != nil {
			return nil, prop, err
		}
		// Partition columns survive only if projected through as plain
		// column references.
		newProp := partProp{gathered: prop.gathered}
		for _, c := range prop.cols {
			for i, e := range n.Exprs {
				if col, ok := e.(*expr.Col); ok && n.Child.Schema().Cols[col.Idx].Name == c {
					newProp.cols = append(newProp.cols, n.sch.Cols[i].Name)
				}
			}
		}
		if len(newProp.cols) != len(prop.cols) {
			newProp.cols = nil
		}
		if isIdentity(n.Exprs, n.Child.Schema()) {
			// It re-lists its child's columns in order (a SELECT list
			// over the columns the FROM input was pruned to): the rows
			// pass unchanged, and the names travel in Plan.OutputNames.
			return child, newProp, nil
		}
		return &PProject{Child: child, Exprs: n.Exprs, Sch: n.sch, Est: n.Est}, newProp, nil

	case *LJoin:
		build, bProp, err := lw.lower(n.Left)
		if err != nil {
			return nil, bProp, err
		}
		probe, pProp, err := lw.lower(n.Right)
		if err != nil {
			return nil, pProp, err
		}
		// Repartition any side not already partitioned on its keys.
		if !sameKey(bProp.cols, n.LeftKeyCols) {
			build = lw.cut(build, n.LeftKeys, bProp.gathered)
		}
		if !sameKey(pProp.cols, n.RightKeyCols) {
			probe = lw.cut(probe, n.RightKeys, pProp.gathered)
		}
		out := &PHashJoin{
			Build: build, Probe: probe,
			BuildKeys: n.LeftKeys, ProbeKeys: n.RightKeys,
			Sch: n.sch, Est: n.Est,
		}
		// Join output partitioning is reported as unknown, mirroring the
		// CLAIMS optimizer: SSE-Q9's plan (Figure 1b) repartitions the
		// join output before aggregating even though the probe-side key
		// columns would justify a single-phase aggregation. Keeping the
		// conservative property reproduces the paper's three-segment
		// plan and its pipeline P2.
		return out, partProp{gathered: bProp.gathered && pProp.gathered}, nil

	case *LAgg:
		child, prop, err := lw.lower(n.Child)
		if err != nil {
			return nil, prop, err
		}
		algo := chooseAggAlgorithm(n.Est)
		if len(n.Keys) > 0 && prop.subsetOf(n.KeyCols) {
			// Groups are node-local: single-phase aggregation.
			out := &PHashAgg{Child: child, Keys: n.Keys, KeyNames: n.KeyNames,
				Specs: n.Specs, Algo: algo, Sch: n.sch, Est: n.Est}
			return out, partProp{gathered: prop.gathered}, nil
		}
		if len(n.Keys) == 0 || lw.opts.PartialAgg ||
			(n.Groups > 0 && n.Groups <= partialAggThreshold) {
			// Scalar aggregates and low-cardinality group-bys combine
			// cheap per-node partials instead of shipping raw rows; the
			// PartialAgg option forces the same for the ablation study.
			return lw.lowerTwoPhaseAgg(n, child, prop, algo)
		}
		// Paper-faithful plan (Figure 1b): repartition the raw rows on
		// the group keys, then aggregate once on the receiving side.
		merger := lw.cut(child, n.Keys, prop.gathered)
		out := &PHashAgg{Child: merger, Keys: n.Keys, KeyNames: n.KeyNames,
			Specs: n.Specs, Algo: algo, Sch: n.sch, Est: n.Est}
		return out, partProp{}, nil

	case *LSort:
		child, prop, err := lw.lower(n.Child)
		if err != nil {
			return nil, prop, err
		}
		if !prop.gathered {
			child = lw.cut(child, nil, false)
		}
		return &PSort{Child: child, Keys: n.Keys, Est: n.Est}, partProp{gathered: true}, nil

	case *LTopN:
		child, prop, err := lw.lower(n.Child)
		if err != nil {
			return nil, prop, err
		}
		if !prop.gathered {
			// Local top-N before the gather bounds network traffic.
			child = lw.cut(&PTopN{Child: child, Keys: n.Keys, N: n.N, Est: n.Est}, nil, false)
		}
		return &PTopN{Child: child, Keys: n.Keys, N: n.N, Est: n.Est}, partProp{gathered: true}, nil

	case *LLimit:
		child, prop, err := lw.lower(n.Child)
		if err != nil {
			return nil, prop, err
		}
		if !prop.gathered {
			child = lw.cut(&PLimit{Child: child, N: n.N, Est: n.Est}, nil, false)
		}
		return &PLimit{Child: child, N: n.N, Est: n.Est}, partProp{gathered: true}, nil
	}
	return nil, partProp{}, fmt.Errorf("plan: cannot lower %T", l)
}

// lowerTwoPhaseAgg emits partial aggregation, a repartition (or gather
// for scalar aggregates), final aggregation, and a restoring projection.
// A partial aggregation that sits directly on a hash join and groups by
// build-side columns runs inside the join (perBuildRow).
func (lw *lowerer) lowerTwoPhaseAgg(n *LAgg, child PhysOp, prop partProp,
	algo iterator.AggAlgorithm) (PhysOp, partProp, error) {
	inSch := n.Child.Schema()

	// Partial specs: Avg splits into Sum+Count, and an extreme of an
	// argument that can be NULL gets a Count beside it (see mergeSpec);
	// everything else keeps its function. refs[j] maps spec j to its
	// partial column(s), guard[pi] partial pi to its Count, or -1.
	var pSpecs []iterator.AggSpec
	var guard []int
	add := func(f iterator.AggFunc, arg expr.Expr) int {
		pSpecs = append(pSpecs, iterator.AggSpec{Func: f, Arg: arg,
			Name: fmt.Sprintf("__p%d", len(pSpecs))})
		guard = append(guard, -1)
		return len(pSpecs) - 1
	}
	type partialRef struct{ sum, cnt int }
	refs := make([]partialRef, len(n.Specs))
	for j, s := range n.Specs {
		switch {
		case s.Func == iterator.Avg:
			refs[j].sum = add(iterator.Sum, s.Arg)
			refs[j].cnt = add(iterator.Count, s.Arg)
		case s.Func == iterator.Min || s.Func == iterator.Max:
			refs[j].sum = add(s.Func, s.Arg)
			if _, isCol := s.Arg.(*expr.Col); !isCol {
				guard[refs[j].sum] = add(iterator.Count, s.Arg)
			}
		default:
			refs[j].sum = add(s.Func, s.Arg)
		}
	}
	partial := &PHashAgg{
		Child: child, Keys: n.Keys, KeyNames: n.KeyNames, Specs: pSpecs,
		Algo: algo, Partial: true,
		Sch: aggOutputSchema(n.Keys, n.KeyNames, pSpecs, inSch),
		Est: n.Est,
	}
	if j, ok := child.(*PHashJoin); ok {
		if pj, merges, ok := perBuildRow(j, n.Keys, pSpecs, guard); ok {
			partial.Child, partial.Specs = pj, merges
		}
	}

	// Repartition on the group keys (gather for scalar aggregation).
	nk := len(n.Keys)
	var exKeys []expr.Expr
	for i := 0; i < nk; i++ {
		exKeys = append(exKeys, expr.NewCol(i, partial.Sch.Cols[i].Name))
	}
	var merger *PMerger
	toMaster := nk == 0
	if toMaster {
		merger = lw.cut(partial, nil, prop.gathered)
	} else {
		merger = lw.cut(partial, exKeys, prop.gathered)
	}

	// Final aggregation over the partials.
	var fKeys []expr.Expr
	for i := 0; i < nk; i++ {
		fKeys = append(fKeys, expr.NewCol(i, partial.Sch.Cols[i].Name))
	}
	partialCol := func(pi int) expr.Expr {
		if pi < 0 {
			return nil
		}
		return expr.NewCol(nk+pi, pSpecs[pi].Name)
	}
	var fSpecs []iterator.AggSpec
	for pi, ps := range pSpecs {
		fSpecs = append(fSpecs, mergeSpec(ps, partialCol(pi), partialCol(guard[pi]),
			fmt.Sprintf("__f%d", pi)))
	}
	final := &PHashAgg{
		Child: merger, Keys: fKeys, KeyNames: n.KeyNames, Specs: fSpecs,
		Algo: algo,
		Sch:  aggOutputSchema(fKeys, n.KeyNames, fSpecs, partial.Sch),
		Est:  n.Est,
	}

	// Restore the canonical aggregation schema (keys + __agg_j).
	var exprs []expr.Expr
	for i := 0; i < nk; i++ {
		exprs = append(exprs, expr.NewCol(i, final.Sch.Cols[i].Name))
	}
	for j, s := range n.Specs {
		if s.Func == iterator.Avg {
			sum := expr.NewCol(nk+refs[j].sum, "")
			cnt := expr.NewCol(nk+refs[j].cnt, "")
			exprs = append(exprs, expr.NewArith(expr.Div, sum, cnt))
		} else {
			exprs = append(exprs, expr.NewCol(nk+refs[j].sum, s.Name))
		}
	}
	proj := &PProject{Child: final, Exprs: exprs, Sch: n.sch, Est: Est{Rows: n.Rows}}
	outProp := partProp{gathered: toMaster || prop.gathered && toMaster}
	if !toMaster {
		outProp = partProp{} // partitioned on group keys (internal names)
		outProp.cols = nil
	}
	if toMaster {
		outProp.gathered = true
	}
	return proj, outProp, nil
}

// mergeSpec is the aggregate that combines partial results of s, read
// from column col, into a result named name: counts and sums add up,
// extremes take the extreme. cnt, when not nil, is the column of the
// partial count of s's argument beside an extreme whose argument can be
// NULL: a partial that folded only NULLs stores a zero that is no value
// (records hold no NULL), and the merge must read it as NULL instead.
func mergeSpec(s iterator.AggSpec, col, cnt expr.Expr, name string) iterator.AggSpec {
	f := s.Func
	if f == iterator.Count {
		f = iterator.Sum // counts combine by summation
	}
	arg := col
	if cnt != nil {
		seen := expr.NewCmp(expr.GT, cnt, expr.NewConst(types.IntVal(0)))
		arg = expr.NewCase([]expr.When{{Cond: seen, Then: col}}, nil)
	}
	return iterator.AggSpec{Func: f, Arg: arg, Name: name}
}

// perBuildRow moves the partial aggregation with keys and specs (guard
// as in lowerTwoPhaseAgg) into its child join j when every key is a
// build-side column and every argument reads only probe-side columns:
// each build row fixes its group, so the join can fold each match into
// its build row and emit one row per matched build row (the groupjoin,
// iterator.NewHashJoinAgg). It returns the rewritten join and the specs
// with which the aggregation above merges the join's partials — the
// final phase's mergeSpec, with COUNT(*) a sum of the match count.
func perBuildRow(j *PHashJoin, keys []expr.Expr, specs []iterator.AggSpec, guard []int) (*PHashJoin, []iterator.AggSpec, bool) {
	nb := j.Build.Schema().NumCols()
	for _, k := range keys {
		if c, ok := k.(*expr.Col); !ok || c.Idx >= nb {
			return nil, nil, false
		}
	}
	var aggs []iterator.AggSpec
	col := make([]expr.Expr, len(specs)) // each partial's column in the join's output
	for pi, s := range specs {
		if s.Arg == nil { // COUNT(*)
			col[pi] = expr.NewCol(nb, iterator.MatchCount)
			continue
		}
		arg, ok := expr.Rebase(s.Arg, nb)
		if !ok || s.Func == iterator.Avg {
			return nil, nil, false
		}
		col[pi] = expr.NewCol(nb+1+len(aggs), s.Name)
		aggs = append(aggs, iterator.AggSpec{Func: s.Func, Arg: arg, Name: s.Name})
	}
	merges := make([]iterator.AggSpec, len(specs))
	for pi, s := range specs {
		var cnt expr.Expr
		if guard[pi] >= 0 {
			cnt = col[guard[pi]]
		}
		merges[pi] = mergeSpec(s, col[pi], cnt, s.Name)
	}
	out := *j
	out.PerBuildRow, out.Aggs = true, aggs
	out.Sch = iterator.PerBuildRowSchema(j.Build.Schema(), j.Probe.Schema(), aggs)
	out.Est = Est{Rows: j.Build.Estimate().Rows}
	return &out, merges, true
}

// chooseAggAlgorithm picks by the aggregation's group estimate,
// mirroring the paper's observation (Figure 8b) that a shared table
// contends under few groups and private tables stop paying under many:
// hybrid when the estimate fits in one private table (a scalar
// aggregate's is 1), shared when it does not or when a key's NDV had to
// be guessed.
func chooseAggAlgorithm(e Est) iterator.AggAlgorithm {
	if e.Known && e.Groups > 0 && e.Groups <= iterator.MaxPrivateGroups {
		return iterator.HybridAgg
	}
	return iterator.SharedAgg
}

func sameKey(prop, keyCols []string) bool {
	if len(prop) == 0 || len(prop) != len(keyCols) {
		return false
	}
	for i := range prop {
		if prop[i] == "" || keyCols[i] == "" || prop[i] != keyCols[i] {
			return false
		}
	}
	return true
}

func anyEmpty(ss []string) bool {
	if len(ss) == 0 {
		return true
	}
	for _, s := range ss {
		if s == "" {
			return true
		}
	}
	return false
}

// isIdentity reports whether exprs are exactly the columns of in, in
// order.
func isIdentity(exprs []expr.Expr, in *types.Schema) bool {
	if len(exprs) != in.NumCols() {
		return false
	}
	for i, e := range exprs {
		if c, ok := e.(*expr.Col); !ok || c.Idx != i {
			return false
		}
	}
	return true
}

// outputNames recovers the result column names of the logical root.
func outputNames(root Logical) []string {
	sch := root.Schema()
	names := make([]string, sch.NumCols())
	for i, c := range sch.Cols {
		names[i] = bareName(c.Name)
	}
	return names
}

// partialAggThreshold bounds the estimated group count under which
// node-local partial aggregation is worth its hash-table state: small
// group sets (Q1's 6 flag pairs, Q12's 7 ship modes) collapse the
// exchange volume to almost nothing.
const partialAggThreshold = 100_000
