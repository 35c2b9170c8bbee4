package engine

import "repro/internal/plan"

// estimateQueryMemory derives a coarse working-memory estimate for a
// plan from the planner's row estimates (plan.Est): how many bytes of
// operator state (hash tables, sort buffers) the query is expected to
// pin per slave node and on the master. Admission prepays the estimate
// against the node budgets, so a query that cannot possibly fit is
// refused up front with a retriable error instead of thrashing every
// resident query mid-flight. The numbers only gate admission —
// enforcement is the per-operator reservations — so rough estimates
// are fine.
func (c *Cluster) estimateQueryMemory(p *plan.Plan) (perSlave, master int64) {
	for _, seg := range p.Segments {
		var segBytes int64
		plan.Walk(seg.Root, func(op plan.PhysOp) {
			segBytes += opBytes(op)
		})
		if seg.OnMaster {
			master += segBytes
		} else if c.cfg.Nodes > 0 {
			// Slave segments split their (cluster-total) state evenly
			// across the hash-partitioned nodes.
			perSlave += segBytes / int64(c.cfg.Nodes)
		}
	}
	return perSlave, master
}

// opBytes estimates the working memory an operator pins, cluster-wide.
// Stateless operators (scans, filters, projections, mergers) stream and
// pin nothing beyond their blocks.
func opBytes(op plan.PhysOp) int64 {
	switch n := op.(type) {
	case *plan.PHashJoin:
		// Build rows in fixed-stride pages plus the offset table, and an
		// aggregating join's match count and partial state per build row.
		b := n.Build.Estimate().Rows
		bytes := b * int64(n.Build.Schema().Stride()) * 2
		if n.PerBuildRow {
			bytes += b * int64(1+len(n.Aggs)) * 8
		}
		return bytes
	case *plan.PHashAgg:
		per := int64(112 + 56*len(n.Specs) + 32*len(n.Keys))
		return max(n.Rows, 1) * per
	case *plan.PSort:
		// The sort collects its whole input plus row references.
		return n.Child.Estimate().Rows * int64(n.Child.Schema().Stride()+48)
	case *plan.PTopN:
		return n.N * int64(n.Child.Schema().Stride()+48)
	}
	return 0
}
