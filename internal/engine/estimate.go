package engine

import "repro/internal/plan"

// estimateQueryMemory derives a coarse working-memory estimate for a
// plan from catalog statistics: how many bytes of operator state (hash
// tables, sort buffers) the query is expected to pin per slave node and
// on the master. Admission prepays the estimate against the node
// budgets, so a query that cannot possibly fit is refused up front with
// a retriable error instead of thrashing every resident query
// mid-flight. The numbers only gate admission — enforcement is the
// per-operator reservations — so rough heuristics (filters keep a
// third, aggs without stats produce a quarter of their input) are fine.
func (c *Cluster) estimateQueryMemory(p *plan.Plan) (perSlave, master int64) {
	es := &memEstimator{c: c, segRows: map[int]int64{}, prodOf: map[int]*plan.Segment{}}
	segByID := map[int]*plan.Segment{}
	for _, s := range p.Segments {
		segByID[s.ID] = s
	}
	for _, ex := range p.Exchanges {
		es.prodOf[ex.ID] = segByID[ex.Producer]
	}
	for _, seg := range p.Segments {
		var segBytes int64
		plan.Walk(seg.Root, func(op plan.PhysOp) {
			segBytes += es.opBytes(op)
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

type memEstimator struct {
	c       *Cluster
	segRows map[int]int64
	prodOf  map[int]*plan.Segment
}

// rows estimates an operator's cluster-total output cardinality.
func (es *memEstimator) rows(op plan.PhysOp) int64 {
	switch n := op.(type) {
	case *plan.PScan:
		r := n.Table.Stats.Rows
		if n.Pred != nil {
			r /= 3
		}
		return r
	case *plan.PFilter:
		return es.rows(n.Child) / 3
	case *plan.PProject:
		return es.rows(n.Child)
	case *plan.PHashJoin:
		b, p := es.rows(n.Build), es.rows(n.Probe)
		if b > p || n.PerBuildRow { // an aggregating join emits build rows
			return b
		}
		return p
	case *plan.PHashAgg:
		return es.groups(n)
	case *plan.PSort:
		return es.rows(n.Child)
	case *plan.PTopN:
		return n.N
	case *plan.PLimit:
		return n.N
	case *plan.PMerger:
		// Network input: the producer segment's root cardinality.
		if prod := es.prodOf[n.Exchange]; prod != nil {
			if r, ok := es.segRows[prod.ID]; ok {
				return r
			}
			es.segRows[prod.ID] = 0 // cycle guard; plans are acyclic
			r := es.rows(prod.Root)
			es.segRows[prod.ID] = r
			return r
		}
	}
	return 0
}

// groups estimates an aggregation's distinct group count: the NDV of
// the bare key column when the catalog knows it, otherwise a quarter of
// the input.
func (es *memEstimator) groups(n *plan.PHashAgg) int64 {
	in := es.rows(n.Child)
	var ndv int64 = 1
	known := false
	for _, key := range n.KeyNames {
		if v, ok := es.c.cat.ColNDV(key); ok {
			ndv *= v
			known = true
		}
	}
	g := in / 4
	if known {
		g = ndv
	}
	if g > in {
		g = in
	}
	if g < 1 {
		g = 1
	}
	return g
}

// opBytes estimates the working memory an operator pins, cluster-wide.
// Stateless operators (scans, filters, projections, mergers) stream and
// pin nothing beyond their blocks.
func (es *memEstimator) opBytes(op plan.PhysOp) int64 {
	switch n := op.(type) {
	case *plan.PHashJoin:
		// Build rows in fixed-stride pages plus the offset table, and an
		// aggregating join's match count and partial state per build row.
		b := es.rows(n.Build)
		bytes := b * int64(n.Build.Schema().Stride()) * 2
		if n.PerBuildRow {
			bytes += b * int64(1+len(n.Aggs)) * 8
		}
		return bytes
	case *plan.PHashAgg:
		per := int64(112 + 56*len(n.Specs) + 32*len(n.Keys))
		return es.groups(n) * per
	case *plan.PSort:
		// The sort collects its whole input plus row references.
		return es.rows(n.Child) * int64(n.Child.Schema().Stride()+48)
	case *plan.PTopN:
		return n.N * int64(n.Child.Schema().Stride()+48)
	}
	return 0
}
