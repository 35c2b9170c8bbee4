package engine

import (
	"context"

	"repro/internal/block"
	"repro/internal/iterator"
	"repro/internal/plan"
)

// The serial fast path. High-QPS point lookups spend microseconds in
// operators and hundreds of microseconds in the parallel dataflow
// machinery around them: elastic pools, exchange staging, sampler and
// scheduler goroutines, memory admission. For a small, gather-only
// plan none of that machinery changes the answer, so an opted-in
// cluster (Config.FastPath) drives eligible plans serially, on the
// calling goroutine. It is a driver of the one executor, not a second
// one: the same stages open and close the query, the same builder
// lowers the operators (under the serial buildEnv), and only admission
// and exchange wiring are skipped because there is nothing to admit or
// wire. Anything the fast path cannot prove harmless — distribution,
// fault injection, repartition exchanges, joins, scans above
// fastPathRows — takes the parallel drivers.

// fastPathRows caps the total catalog-estimated scanned rows of a
// fast-path query; larger scans take the parallel dataflow path.
const fastPathRows = 65536

// fastEligible reports whether the plan can take the serial fast path
// on this cluster.
func (c *Cluster) fastEligible(p *plan.Plan) bool {
	if !c.cfg.FastPath || c.dist != nil || c.faultInj != nil {
		return false
	}
	var rows int64
	ok := true
	for _, seg := range p.Segments {
		// Repartition exchanges imply hash-distributed consumers; the
		// serial executor only models gather edges. Order-preserving
		// segments rely on the merge discipline of the exchange, which
		// plain block concatenation does not honor.
		if seg.Out != nil && seg.Out.PartKeys != nil {
			return false
		}
		if seg.OrderPreserving {
			return false
		}
		plan.Walk(seg.Root, func(op plan.PhysOp) {
			switch n := op.(type) {
			case *plan.PScan:
				rows += n.Table.Stats.Rows
			case *plan.PHashJoin:
				ok = false
			}
		})
	}
	if !ok || rows > fastPathRows {
		return false
	}
	// Every exchange must gather into a master-resident consumer: a
	// data-node consumer would mean broadcast, which the single-pass
	// segment loop does not model.
	for _, ex := range p.Exchanges {
		if cons := p.Segment(ex.Consumer); cons == nil || !cons.OnMaster {
			return false
		}
	}
	return true
}

// runSerial is the serial driver: segments run to completion one after
// another in plan order (producers-first, fixed at compile time), each
// as one fused iterator tree (the serial buildEnv) drained on the
// calling goroutine, with exchange edges as in-memory block hand-offs.
func (e *exec) runSerial(ctx context.Context) ([]*block.Block, error) {
	var final []*block.Block
	for _, seg := range e.p.Segments {
		out, err := e.runSegmentSerial(ctx, seg)
		if err != nil {
			return nil, err
		}
		if seg.Out != nil {
			if e.feeds == nil {
				e.feeds = make(map[int][]*block.Block)
			}
			e.feeds[seg.Out.Exchange] = out
		}
		if seg == e.p.Final {
			final = out
		}
	}
	return final, nil
}

// runSegmentSerial builds the segment's fused tree and drains it with
// a single worker context, polling ctx between blocks.
func (e *exec) runSegmentSerial(ctx context.Context, seg *plan.Segment) ([]*block.Block, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	it, err := e.buildOp(seg.Root, buildEnv{seg: seg})
	if err != nil {
		return nil, err
	}
	defer it.Close()
	e.wctx = iterator.Ctx{Term: &e.term}
	wctx := &e.wctx
	if st := it.Open(wctx); st != iterator.OK {
		return nil, nil
	}
	var out []*block.Block
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b, st := it.Next(wctx)
		if st != iterator.OK {
			return out, nil
		}
		if b.NumTuples() > 0 {
			out = append(out, b)
		}
	}
}

// blockFeed replays materialized upstream blocks as an iterator — the
// serial driver's stand-in for a merger reading a network inbox.
type blockFeed struct {
	blocks []*block.Block
	i      int
}

func (f *blockFeed) Open(*iterator.Ctx) iterator.Status { return iterator.OK }

func (f *blockFeed) Next(ctx *iterator.Ctx) (*block.Block, iterator.Status) {
	if f.i >= len(f.blocks) {
		return nil, iterator.End
	}
	b := f.blocks[f.i]
	f.i++
	if ctx.OnBlockDone != nil {
		ctx.OnBlockDone(b.NumTuples())
	}
	return b, iterator.OK
}

func (f *blockFeed) Close() {}
