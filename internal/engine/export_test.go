package engine

import (
	"repro/internal/plan"
)

// ErrNotSerial exposes the builder's typed refusal to external tests.
var ErrNotSerial = errNotSerial

// OpBuild is what the one builder answered for one operator (subtree)
// of a plan under each of its two environments.
type OpBuild struct {
	Seg              *plan.Segment
	Op               plan.PhysOp
	Parallel, Serial error
}

// BuildUnderBothEnvs wires p exactly as a parallel query would — place,
// admit, wire, so exchanges, inboxes and memory accounts are real —
// then lowers every operator of every segment once more under the
// parallel environment and once under the serial one, without running
// anything, and tears the wiring down. The suite-wide builder-parity
// test lives in an external test package (the TPC-H and SSE suites
// import this one) and reads the builder through here.
func (c *Cluster) BuildUnderBothEnvs(p *plan.Plan) ([]OpBuild, error) {
	e := &exec{c: c, p: p, scope: newQueryScope()}
	e.place()
	if err := e.admit(); err != nil {
		return nil, err
	}
	defer e.release()
	if err := e.wire(); err != nil {
		return nil, err
	}
	defer func() {
		for _, inst := range e.insts {
			inst.el.Close()
		}
		close(e.stop)
	}()
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
