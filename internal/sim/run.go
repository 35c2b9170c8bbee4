package sim

import (
	"fmt"
	"math"
	"time"

	"repro/internal/telemetry"
)

// Sim is one simulation run: a graph instantiated on a cluster under a
// scheduling policy.
type Sim struct {
	C      Cluster
	G      *Graph
	Policy Policy

	insts   []*segInst         // all instances
	byNode  [][]*segInst       // per node
	byGroup map[int][]*segInst // group id → instances
	queues  map[[2]int]*queue  // (edge, node) → queue
	now     time.Duration

	// The run's telemetry stream (virtual-time clock): every event the
	// run emits goes through it, and the two timelines of Metrics are
	// read back from the sinks below when Run finishes.
	scope     *telemetry.Scope
	utilSink  *telemetry.MemSink
	traceSink *telemetry.MemSink

	// CostFactor inflates every stage's per-tuple cost (cache-thrash
	// modeling by baseline policies); 1 = no inflation.
	CostFactor float64
	// PartitionEff models statically partitioned dataflows (Figure 2a):
	// each of p workers owns a fixed partition, so stragglers and skew
	// make effective parallelism p^PartitionEff. 1 = elastic shared
	// dataflow (work-sharing, no stragglers); static engines use ~0.8.
	PartitionEff float64
	// Materialized gates consumers until their producers complete
	// (stage-at-a-time execution: ME and shark-sim).
	Materialized bool

	// The run's fluid accumulators, plain fields because the simulator
	// is single-threaded: core-second integrals, bytes on the wire,
	// scheduling cost, context switches, and the memory high-water mark.
	busySec, availSec, allocSec float64
	netBytes                    float64
	schedSec                    float64
	ctxSwitches                 float64
	peakMem                     float64

	stateBytes float64 // blocking-operator state (hash tables)

	// TraceEvery throttles trace samples (default: every quantum).
	TraceEvery time.Duration
	lastTrace  time.Duration

	// MaxVirtual aborts runaway simulations.
	MaxVirtual time.Duration

	// ExternalCores models an interfering CPU-bound program (Figure
	// 12): it returns the number of cores per node consumed by the
	// interference at a given virtual time. Query workers time-share
	// the remainder.
	ExternalCores func(now time.Duration) float64
}

// New builds a simulation.
func New(c Cluster, g *Graph, p Policy) (*Sim, error) {
	c.defaults()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{
		C: c, G: g, Policy: p,
		byGroup:      make(map[int][]*segInst),
		queues:       make(map[[2]int]*queue),
		byNode:       make([][]*segInst, c.Nodes+1),
		MaxVirtual:   time.Hour,
		CostFactor:   1,
		PartitionEff: 1,
	}
	for _, sg := range g.Groups {
		nodes := []int{c.Nodes} // master instance
		if sg.OnAllNodes {
			nodes = make([]int, c.Nodes)
			for i := range nodes {
				nodes[i] = i
			}
		}
		for _, n := range nodes {
			inst := &segInst{group: sg, node: n}
			s.insts = append(s.insts, inst)
			s.byNode[n] = append(s.byNode[n], inst)
			s.byGroup[sg.ID] = append(s.byGroup[sg.ID], inst)
		}
	}
	for _, e := range g.Edges {
		for _, inst := range s.byGroup[e.To] {
			s.queues[[2]int{e.ID, inst.node}] = &queue{
				edge: e, node: inst.node, visit: 1,
				openFrom: len(s.byGroup[e.From]),
			}
		}
	}
	s.scope = telemetry.NewScope("sim."+p.Name(),
		telemetry.WithClock(func() time.Duration { return s.now }))
	s.utilSink = telemetry.NewMemSink(telemetry.KindUtilSample)
	s.traceSink = telemetry.NewMemSink(telemetry.KindParallelismSample)
	s.scope.Attach(s.utilSink)
	s.scope.Attach(s.traceSink)
	return s, nil
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Scope returns the run's telemetry scope, for attaching sinks before
// Run and for policies recording scheduling costs.
func (s *Sim) Scope() *telemetry.Scope { return s.scope }

// AddSchedOverhead charges virtual CPU time to scheduling (Table 5).
func (s *Sim) AddSchedOverhead(sec float64) { s.schedSec += sec }

// SetSchedOverhead overwrites the scheduling-overhead accumulator —
// policies that model overhead as a closed-form function of work done
// (MDP's per-unit pickup cost) recompute it each step.
func (s *Sim) SetSchedOverhead(sec float64) { s.schedSec = sec }

// AddContextSwitches accrues simulated thread context switches.
func (s *Sim) AddContextSwitches(n float64) { s.ctxSwitches += n }

// BusyCoreSec returns the busy core-second integral so far.
func (s *Sim) BusyCoreSec() float64 { return s.busySec }

// Run advances the simulation to completion and returns its metrics.
func (s *Sim) Run() (*Metrics, error) {
	s.scope.Emit(telemetry.QueryPhase{Phase: "start", Detail: s.Policy.Name()})
	s.Policy.Init(s)
	for _, inst := range s.insts {
		s.emitStageChange(inst)
	}
	dt := s.C.Quantum
	for !s.finished() {
		if s.now > s.MaxVirtual {
			return nil, fmt.Errorf("sim: exceeded %v of virtual time (stuck?)", s.MaxVirtual)
		}
		s.Policy.Step(s, s.now)
		s.step(dt)
		s.now += dt
	}
	s.scope.Emit(telemetry.QueryPhase{Phase: "end", Detail: s.Policy.Name()})
	return s.metrics(), nil
}

// emitStageChange records the instance entering its current stage.
func (s *Sim) emitStageChange(inst *segInst) {
	st := &inst.group.Stages[inst.stage]
	s.scope.Emit(telemetry.SegmentStageChange{
		Node: inst.node, Segment: inst.group.Name,
		Stage: inst.stage, StageName: st.Name,
	})
}

// metrics assembles the Metrics view from the run's accumulators and
// the internal timeline sinks.
func (s *Sim) metrics() *Metrics {
	m := &Metrics{
		Elapsed:          s.now,
		BusyCoreSeconds:  s.busySec,
		AvailCoreSeconds: s.availSec,
		AllocCoreSeconds: s.allocSec,
		NetBytes:         s.netBytes,
		PeakMemBytes:     s.peakMem,
		SchedOverheadSec: s.schedSec,
		ContextSwitches:  s.ctxSwitches,
	}
	for _, ev := range s.utilSink.Events() {
		u := ev.Rec.(telemetry.UtilSample)
		m.UtilTimeline = append(m.UtilTimeline, UtilSample{
			At: ev.At, CPU: u.CPU, Network: u.Network,
		})
	}
	for _, ev := range s.traceSink.Events() {
		p := ev.Rec.(telemetry.ParallelismSample)
		m.Trace = append(m.Trace, TraceSample{At: ev.At, Parallelism: p.Parallelism})
	}
	return m
}

func (s *Sim) finished() bool {
	for _, inst := range s.insts {
		if !inst.done {
			return false
		}
	}
	return true
}

// step advances one quantum: per node, compute each instance's fluid
// throughput subject to cores, input availability, memory bandwidth,
// output backpressure and NIC budgets.
func (s *Sim) step(dt time.Duration) {
	dtSec := dt.Seconds()
	egress := make([]float64, s.C.Nodes+1) // remaining NIC budget
	ingress := make([]float64, s.C.Nodes+1)
	for i := range egress {
		egress[i] = s.C.NetBps * dtSec
		ingress[i] = s.C.NetBps * dtSec
	}

	sliceBusy, sliceAvail, sliceNet := 0.0, 0.0, 0.0

	for node := 0; node <= s.C.Nodes; node++ {
		insts := s.byNode[node]
		if len(insts) == 0 {
			continue
		}
		memBudget := s.C.MemBps * dtSec

		// Pass 1: input availability per instance, and the node's
		// runnable core demand. Cores are a real resource: when the
		// runnable instances' assigned workers (plus any interfering
		// program) exceed the node's logical cores, the OS time-shares
		// — and the extra thread migration costs locality, modeled with
		// the same cache-miss law the paper measures (Table 5).
		avails := make([]float64, len(insts))
		queues := make([]*queue, len(insts))
		opens := make([]bool, len(insts))
		demand := 0.0
		for i, inst := range insts {
			if inst.done {
				continue
			}
			st := &inst.group.Stages[inst.stage]
			if st.SourceEdge >= 0 {
				q := s.queues[[2]int{st.SourceEdge, node}]
				queues[i] = q
				avails[i] = q.tuples
				opens[i] = q.openFrom > 0
				if s.Materialized && opens[i] {
					avails[i] = 0 // stage-at-a-time: wait for producers
				}
			} else {
				avails[i] = st.LocalRows - inst.consumed
			}
			if avails[i] > 0 {
				demand += float64(inst.p)
			}
		}
		free := float64(s.C.HTCores)
		if s.ExternalCores != nil {
			free -= s.ExternalCores(s.now)
			if free < 1 {
				free = 1
			}
		}
		shareFactor := 1.0
		if demand > free {
			over := demand / float64(s.C.HTCores)
			shareFactor = free / demand /
				(1 + cacheMissPenalty(ModelCacheMiss("IS", int(over+0.5))))
		}

		for i, inst := range insts {
			if inst.done {
				continue
			}
			st := &inst.group.Stages[inst.stage]
			avail := avails[i]
			q := queues[i]
			srcOpen := opens[i]

			pEff := float64(inst.p)
			if s.PartitionEff != 1 && pEff > 1 {
				pEff = powf(pEff, s.PartitionEff)
			}
			rate := s.C.rate(st, pEff) * shareFactor
			if s.CostFactor != 1 && s.CostFactor > 0 {
				rate /= s.CostFactor
			}
			want := rate * dtSec
			if want > avail {
				// Input-limited: the measured rate under-estimates the
				// segment's capacity, so it must not enter the
				// scalability vector (Section 4.4). Stage beginners
				// reading exhausted local storage are simply finishing.
				if st.SourceEdge >= 0 && srcOpen {
					inst.winStarved = true
				}
				want = avail
			}
			if want > 0 && st.MemBytesPerTuple > 0 {
				memMax := memBudget / st.MemBytesPerTuple
				if want > memMax {
					want = memMax
				}
			}

			// Output limiting for streaming stages.
			sel := s.stageSel(inst, st)
			processed := want
			blocked := false
			if !st.EmitAtEnd && st.OutEdge >= 0 && sel > 0 {
				maxOut := s.outCapacity(inst, st, egress, ingress, dtSec)
				if cap := maxOut / sel; processed > cap {
					processed = cap
					blocked = true
				}
			}

			if processed > 0 {
				if q != nil {
					q.tuples -= processed
					if q.tuples < 0 {
						q.tuples = 0
					}
				}
				inst.consumed += processed
				inst.winProcessed += processed
				inst.totalProcessed += processed
				memBudget -= processed * st.MemBytesPerTuple
				busy := 0.0
				if rate > 0 {
					busy = processed / rate * float64(inst.p)
				}
				inst.busyCoreSec += busy
				sliceBusy += busy
				if st.StateBytesPerTuple > 0 {
					inst.stateHeld += processed * st.StateBytesPerTuple
					s.stateBytes += processed * st.StateBytesPerTuple
				}
				if st.EmitAtEnd {
					inst.emittedHold += processed * sel
				} else if st.OutEdge >= 0 && sel > 0 {
					sliceNet += s.emit(inst, st, processed*sel, egress, ingress)
				}
			}

			// Flags for the scheduler.
			if avail <= 1e-9 && srcOpen {
				inst.winStarved = true
			}
			if blocked {
				inst.winBlocked = true
			}

			// Stage completion.
			if s.stageDone(inst, st, q) {
				if st.EmitAtEnd {
					out := inst.emittedHold
					if st.EmitRows > 0 {
						out = math.Min(st.EmitRows, inst.emittedHold)
						if inst.emittedHold == 0 {
							out = st.EmitRows
						}
					}
					if st.OutEdge >= 0 && out > 0 {
						sliceNet += s.emit(inst, st, out, egress, ingress)
					}
					inst.emittedHold = 0
					// Blocking-operator state is handed downstream on
					// emission.
					if st.StateBytesPerTuple > 0 {
						s.stateBytes -= inst.stateHeld
						inst.stateHeld = 0
					}
				}
				inst.stage++
				inst.consumed = 0
				if inst.stage >= len(inst.group.Stages) {
					inst.done = true
					s.stateBytes -= inst.stateHeld
					inst.stateHeld = 0
					s.onInstDone(inst)
				} else {
					s.emitStageChange(inst)
				}
			}
		}
		sliceAvail += float64(s.C.HTCores)
	}

	// Telemetry accounting.
	sliceAlloc := 0.0
	for _, inst := range s.insts {
		if !inst.done {
			sliceAlloc += float64(inst.p) * dtSec
		}
	}
	s.busySec += sliceBusy
	s.availSec += float64(s.C.HTCores*s.C.Nodes) * dtSec
	s.allocSec += sliceAlloc
	cpuUtil := 0.0
	if sliceAlloc > 0 {
		cpuUtil = sliceBusy / sliceAlloc
	}
	netUtil := sliceNet / (s.C.NetBps * dtSec * float64(s.C.Nodes))
	s.scope.Emit(telemetry.UtilSample{
		CPU: math.Min(cpuUtil, 1), Network: math.Min(netUtil, 1),
	})

	mem := s.stateBytes
	for _, q := range s.queues {
		b := q.tuples * q.edge.BytesPerTuple
		if b > q.peakByte {
			q.peakByte = b
		}
		mem += b
	}
	s.peakMem = math.Max(s.peakMem, mem)

	// Parallelism trace (node 0 / master instances).
	if s.now-s.lastTrace >= s.TraceEvery {
		s.lastTrace = s.now
		sample := telemetry.ParallelismSample{Parallelism: map[string]int{}}
		for _, inst := range s.insts {
			if inst.node == 0 || (!inst.group.OnAllNodes && inst.node == s.C.Nodes) {
				sample.Parallelism[inst.group.Name] = inst.p
			}
		}
		s.scope.Emit(sample)
	}
}

// stageSel returns the stage's current selectivity.
func (s *Sim) stageSel(inst *segInst, st *Stage) float64 {
	if st.SelProfile != nil {
		total := st.LocalRows
		if st.SourceEdge >= 0 {
			total = 0 // profile over local stages only
		}
		prog := 1.0
		if total > 0 {
			prog = inst.consumed / total
		}
		return st.SelProfile(prog)
	}
	return st.Selectivity
}

// outCapacity computes how many output tuples the stage may emit this
// quantum given destination queue space and NIC budgets.
func (s *Sim) outCapacity(inst *segInst, st *Stage, egress, ingress []float64, dtSec float64) float64 {
	if st.ToResult {
		return math.Inf(1)
	}
	e := s.G.Edges[st.OutEdge]
	dests := s.destNodes(e)
	queueSpace := math.Inf(1)
	if e.QueueCapTuples > 0 {
		queueSpace = 0
		for _, dn := range dests {
			q := s.queues[[2]int{e.ID, dn}]
			space := e.QueueCapTuples - q.tuples
			if space > 0 {
				queueSpace += space
			}
		}
	}
	// NIC constraint: output spreads uniformly over destinations, so
	// the remote share (all but the local instance) draws from this
	// node's egress budget and each destination's ingress budget.
	nicSpace := math.Inf(1)
	if e.BytesPerTuple > 0 {
		remote := 0
		minIngress := math.Inf(1)
		for _, dn := range dests {
			if dn != inst.node {
				remote++
				if ingress[dn] < minIngress {
					minIngress = ingress[dn]
				}
			}
		}
		if remote > 0 {
			frac := float64(remote) / float64(len(dests))
			byEgress := egress[inst.node] / e.BytesPerTuple / frac
			byIngress := minIngress / e.BytesPerTuple * float64(len(dests))
			nicSpace = math.Min(byEgress, byIngress)
		}
	}
	return math.Min(queueSpace, nicSpace)
}

// emit distributes output tuples to destination queues, charging NIC
// budgets; it returns the bytes that crossed the network.
func (s *Sim) emit(inst *segInst, st *Stage, tuples float64, egress, ingress []float64) float64 {
	if st.ToResult || st.OutEdge < 0 {
		return 0
	}
	e := s.G.Edges[st.OutEdge]
	dests := s.destNodes(e)
	share := tuples / float64(len(dests))
	vr := s.currentVisit(inst, st)
	var netBytes float64
	for _, dn := range dests {
		q := s.queues[[2]int{e.ID, dn}]
		q.tuples += share
		q.visit = vr
		if dn != inst.node && e.BytesPerTuple > 0 {
			b := share * e.BytesPerTuple
			egress[inst.node] -= b
			ingress[dn] -= b
			netBytes += b
			s.netBytes += b
		}
	}
	return netBytes
}

// currentVisit propagates visit rates along the dataflow (Section 4.3):
// the emitted tuples' rate is the stage input's rate times the current
// selectivity.
func (s *Sim) currentVisit(inst *segInst, st *Stage) float64 {
	in := 1.0
	if st.SourceEdge >= 0 {
		in = s.queues[[2]int{st.SourceEdge, inst.node}].visit
	}
	return in * s.stageSel(inst, st)
}

func (s *Sim) destNodes(e *Edge) []int {
	to := s.byGroup[e.To]
	if e.Gather {
		return []int{to[0].node}
	}
	nodes := make([]int, len(to))
	for i, inst := range to {
		nodes[i] = inst.node
	}
	return nodes
}

func (s *Sim) stageDone(inst *segInst, st *Stage, q *queue) bool {
	if st.SourceEdge >= 0 {
		return q != nil && q.openFrom == 0 && q.tuples <= 1e-9
	}
	return inst.consumed >= st.LocalRows-1e-9
}

// onInstDone closes the instance's outbound edges once the whole group
// finishes.
func (s *Sim) onInstDone(inst *segInst) {
	allDone := true
	for _, peer := range s.byGroup[inst.group.ID] {
		if !peer.done {
			allDone = false
		}
	}
	if !allDone {
		return
	}
	for _, st := range inst.group.Stages {
		if st.OutEdge >= 0 && !st.ToResult {
			e := s.G.Edges[st.OutEdge]
			for _, dn := range s.destNodes(e) {
				s.queues[[2]int{e.ID, dn}].openFrom = 0
			}
		}
	}
}

// powf is a tiny wrapper to keep math usage local.
func powf(x, y float64) float64 { return math.Pow(x, y) }
