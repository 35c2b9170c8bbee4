package engine

import (
	"repro/internal/block"
	"repro/internal/plan"
	"repro/internal/types"
)

// TableBlocks returns the storage blocks node holds of table.
func (c *Cluster) TableBlocks(node int, table string) ([]*block.Block, error) {
	p, err := c.store(node).Partition(table)
	if err != nil {
		return nil, err
	}
	return p.Blocks, nil
}

// ErrNotSerial exposes the builder's typed refusal to external tests.
var ErrNotSerial = errNotSerial

// OpBuild is what the one builder answered for one operator (subtree)
// of a plan under each of its two environments.
type OpBuild struct {
	Seg              *plan.Segment
	Op               plan.PhysOp
	Parallel, Serial error
}

// wireOnly wires p exactly as a parallel query with the given argument
// values would — place, admit, wire, so exchanges, inboxes, memory
// accounts and every hosted segment instance are real — without running
// anything. The returned func tears the wiring down.
func (c *Cluster) wireOnly(p *plan.Plan, args []types.Value) (*exec, func(), error) {
	e := &exec{c: c, p: p, args: args, scope: newQueryScope()}
	e.place()
	if err := e.admit(); err != nil {
		return nil, nil, err
	}
	if err := e.wire(); err != nil {
		e.release()
		return nil, nil, err
	}
	return e, func() {
		for _, inst := range e.insts {
			inst.el.Close()
		}
		close(e.stop)
		e.release()
	}, nil
}

// BuildUnderBothEnvs wires p, then lowers every operator of every
// segment once more under the parallel environment and once under the
// serial one. The suite-wide builder-parity test lives in an external
// test package (the TPC-H and SSE suites import this one) and reads the
// builder through here.
func (c *Cluster) BuildUnderBothEnvs(p *plan.Plan) ([]OpBuild, error) {
	e, teardown, err := c.wireOnly(p, nil)
	if err != nil {
		return nil, err
	}
	defer teardown()
	var out []OpBuild
	for _, seg := range p.Segments {
		node := e.nodesOf(seg)[0]
		plan.Walk(seg.Root, func(op plan.PhysOp) {
			b := OpBuild{Seg: seg, Op: op}
			_, b.Parallel = e.buildOp(op, buildEnv{seg: seg, node: node, inst: &segInst{seg: seg, node: node}})
			_, b.Serial = e.buildOp(op, buildEnv{seg: seg})
			out = append(out, b)
		})
	}
	return out, nil
}
