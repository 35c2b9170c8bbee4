package sim

import (
	"math"
	"time"

	"repro/internal/sched"
	"repro/internal/telemetry"
)

// Policy decides per-quantum core allocation — the axis Table 5
// compares. EP runs the real dynamic scheduler (package sched); the
// baselines reproduce the allocation behavior the paper describes for
// implicit (OS) scheduling and morsel-driven parallelism.
type Policy interface {
	Name() string
	Init(s *Sim)
	Step(s *Sim, now time.Duration)
}

// nodeUsed sums assigned cores of live instances on a node.
func nodeUsed(s *Sim, node int) int {
	used := 0
	for _, inst := range s.byNode[node] {
		if !inst.done {
			used += inst.p
		}
	}
	return used
}

// --- static (SP) ------------------------------------------------------------

// StaticPolicy fixes every segment's parallelism at start (static
// pipelining): the plan-time assignment the paper shows is fragile.
type StaticPolicy struct{ P int }

// Name implements Policy.
func (p *StaticPolicy) Name() string { return "SP" }

// Init implements Policy.
func (p *StaticPolicy) Init(s *Sim) {
	for _, inst := range s.insts {
		inst.p = p.P
	}
}

// Step implements Policy.
func (p *StaticPolicy) Step(*Sim, time.Duration) {}

// --- elastic (EP) ------------------------------------------------------------

// EPPolicy drives the real dynamic scheduler against the simulated
// segments. PerSegTickCost is the virtual CPU cost charged per attached
// segment per tick (measurement collection + Algorithm 1 share), the
// source of Table 5's EP scheduling-overhead row.
type EPPolicy struct {
	Tick           time.Duration
	InitialP       int
	PerSegTickCost time.Duration

	bus      *sched.MasterBus
	scheds   []*sched.NodeScheduler
	handles  []*simHandle
	lastDec  []int64 // per-scheduler decision counts at last tick
	lastTick time.Duration
	started  bool
}

// Name implements Policy.
func (p *EPPolicy) Name() string { return "EP" }

// Init implements Policy.
func (p *EPPolicy) Init(s *Sim) {
	if p.Tick <= 0 {
		p.Tick = 50 * time.Millisecond
	}
	if p.InitialP <= 0 {
		p.InitialP = 1
	}
	if p.PerSegTickCost <= 0 {
		p.PerSegTickCost = 15 * time.Microsecond
	}
	p.bus = sched.NewMasterBus()
	p.scheds = make([]*sched.NodeScheduler, s.C.Nodes+1)
	p.lastDec = make([]int64, s.C.Nodes+1)
	for n := 0; n <= s.C.Nodes; n++ {
		p.scheds[n] = sched.NewNodeScheduler(n, sched.Config{
			Cores: s.C.HTCores,
			Scope: s.Scope(),
		}, p.bus)
	}
	for _, inst := range s.insts {
		inst.p = p.InitialP
		h := &simHandle{s: s, inst: inst}
		p.handles = append(p.handles, h)
		p.scheds[inst.node].Attach(h)
		s.Scope().Emit(telemetry.WorkerExpand{
			Node: inst.node, Segment: inst.group.Name, Workers: inst.p,
		})
	}
}

// Step implements Policy.
func (p *EPPolicy) Step(s *Sim, now time.Duration) {
	if p.started && now-p.lastTick < p.Tick {
		return
	}
	p.started = true
	p.lastTick = now
	live := 0
	for _, inst := range s.insts {
		if !inst.done {
			live++
		}
	}
	for _, ns := range p.scheds {
		ns.Tick()
	}
	s.AddSchedOverhead(p.PerSegTickCost.Seconds() * float64(live))
	// Core migrations are the only thread context switches EP incurs.
	for i, ns := range p.scheds {
		d := ns.Decisions()
		s.AddContextSwitches(float64(d - p.lastDec[i]))
		p.lastDec[i] = d
	}
}

// simHandle adapts a simulated segment instance to sched.SegmentHandle.
type simHandle struct {
	s    *Sim
	inst *segInst
}

// Name implements sched.SegmentHandle.
func (h *simHandle) Name() string {
	return h.inst.group.Name
}

// Metrics implements sched.SegmentHandle: it reads and resets the
// instance's measurement window.
func (h *simHandle) Metrics() sched.Metrics {
	inst := h.inst
	now := h.s.now
	dt := (now - inst.winStart).Seconds()
	if dt <= 0 {
		dt = 1e-9
	}
	rate := inst.winProcessed / dt
	visit := 1.0
	if !inst.done && inst.stage < len(inst.group.Stages) {
		st := &inst.group.Stages[inst.stage]
		if st.SourceEdge >= 0 {
			visit = h.s.queues[[2]int{st.SourceEdge, inst.node}].visit
		}
	}
	m := sched.Metrics{
		Parallelism: inst.p,
		Rate:        rate,
		VisitRate:   visit,
		Starved:     inst.winStarved,
		Blocked:     inst.winBlocked,
		Done:        inst.done,
		Stage:       inst.stage,
	}
	inst.winProcessed = 0
	inst.winStarved = false
	inst.winBlocked = false
	inst.winStart = now
	return m
}

// Expand implements sched.SegmentHandle.
func (h *simHandle) Expand() bool {
	if h.inst.done || nodeUsed(h.s, h.inst.node) >= h.s.C.HTCores {
		return false
	}
	h.inst.p++
	h.s.Scope().Emit(telemetry.WorkerExpand{
		Node: h.inst.node, Segment: h.inst.group.Name, Workers: h.inst.p,
	})
	return true
}

// Shrink implements sched.SegmentHandle.
func (h *simHandle) Shrink() bool {
	if h.inst.p <= 1 {
		return false
	}
	h.inst.p--
	h.s.Scope().Emit(telemetry.WorkerShrink{
		Node: h.inst.node, Segment: h.inst.group.Name, Workers: h.inst.p,
	})
	return true
}

// --- implicit scheduling (IS) -------------------------------------------------

// ISPolicy emulates the paper's [24] baseline: c·m worker threads per
// node, one segment per thread group, scheduled by the operating
// system. The OS shares cores equally among runnable threads and has no
// notion of pipeline bottlenecks; oversubscription (c>1) raises
// utilization at the price of context switches and cache thrash,
// modeled as a cost inflation (the Table 5 rows).
type ISPolicy struct{ C int }

// Name implements Policy.
func (p *ISPolicy) Name() string { return "IS" }

// Init implements Policy.
func (p *ISPolicy) Init(s *Sim) {
	if p.C <= 0 {
		p.C = 1
	}
	// One thread per statically partitioned dataflow slice (Figure 2a).
	s.PartitionEff = staticPartitionEff
	p.Step(s, 0)
}

// Step implements Policy. Thread counts are FIXED at query start (one
// batch of threads per segment); the OS can only time-share cores among
// the threads that exist. A segment can therefore never exceed its
// initial thread allotment — when other segments finish, their cores
// idle instead of helping the stragglers, which is exactly the
// inefficiency the paper attributes to implicit scheduling.
func (p *ISPolicy) Step(s *Sim, now time.Duration) {
	for node := 0; node <= s.C.Nodes; node++ {
		insts := s.byNode[node]
		if len(insts) == 0 {
			continue
		}
		threads := p.C * s.C.HTCores / len(insts)
		if threads < 1 {
			threads = 1
		}
		// Each live segment runs its full thread allotment; the
		// simulator's per-node core sharing (with the oversubscription
		// locality penalty) models the OS time-slicing them.
		for _, inst := range insts {
			if !inst.done {
				inst.p = threads
			}
		}
	}
	s.AddContextSwitches(ModelContextSwitches("IS", p.C) * s.C.Quantum.Seconds())
}

// --- morsel-driven parallelism (MDP / MDP+) ------------------------------------

// MDPPolicy emulates the paper's [19] baseline: queries decompose into
// UnitBytes-sized executable units; a pool of c·m worker threads picks
// up units. Plain MDP picks randomly, which allocates cores in
// proportion to available input rather than to the bottleneck; MDP+
// picks using the paper's scheduling estimates (emulated by running the
// real scheduler), at a higher per-unit cost. Workers blocked on the
// network cannot release their core until the current unit completes,
// so larger units delay adjustment (the 64K vs 8K columns).
type MDPPolicy struct {
	UnitBytes int
	Plus      bool
	C         int

	ep EPPolicy // drives allocation for MDP+
}

// Name implements Policy.
func (p *MDPPolicy) Name() string {
	if p.Plus {
		return "MDP+"
	}
	return "MDP"
}

// Init implements Policy.
func (p *MDPPolicy) Init(s *Sim) {
	if p.C <= 0 {
		p.C = 1
	}
	if p.UnitBytes <= 0 {
		p.UnitBytes = 64 * 1024
	}
	if p.Plus {
		// MDP+ allocates with the paper's scheduling estimates but its
		// c·m workers hop between units, paying the measured locality
		// cost (Table 5's cache-miss rows) as a flat inflation.
		s.CostFactor = 1 + cacheMissPenalty(ModelCacheMiss("MDP+", p.C))
		p.ep.Tick = 100 * time.Millisecond
		p.ep.Init(s)
	} else {
		for _, inst := range s.insts {
			inst.p = 1
		}
	}
}

// Step implements Policy.
func (p *MDPPolicy) Step(s *Sim, now time.Duration) {
	if p.Plus {
		p.ep.Step(s, now)
	} else {
		p.allocateProportional(s)
	}
	// Per-unit pickup overhead: every unit processed costs scheduling
	// CPU; smaller units pay proportionally more (Table 5's 8K column).
	perUnit := 3e-6
	if p.Plus {
		perUnit = 12e-6
	}
	bytesProcessed := s.BusyCoreSec() * 50e6 // ≈ bytes touched per busy core-second
	units := bytesProcessed / float64(p.UnitBytes)
	s.SetSchedOverhead(units * perUnit)
	s.AddContextSwitches(ModelContextSwitches(p.Name(), p.C) * s.C.Quantum.Seconds())
}

// allocateProportional mimics random unit pickup: live segments with
// queued input receive worker shares proportional to their available
// input mass — availability-driven, not bottleneck-driven.
func (p *MDPPolicy) allocateProportional(s *Sim) {
	for node := 0; node <= s.C.Nodes; node++ {
		var live []*segInst
		var weights []float64
		var total float64
		for _, inst := range s.byNode[node] {
			if inst.done {
				continue
			}
			st := &inst.group.Stages[inst.stage]
			avail := 1.0
			if st.SourceEdge >= 0 {
				avail = s.queues[[2]int{st.SourceEdge, inst.node}].tuples + 1
			} else {
				avail = st.LocalRows - inst.consumed + 1
			}
			live = append(live, inst)
			weights = append(weights, avail)
			total += avail
		}
		if len(live) == 0 || total == 0 {
			continue
		}
		// The full worker pool holds units concurrently; the simulator's
		// core sharing time-slices them (oversubscribed pools pay the
		// locality penalty).
		workers := p.C * s.C.HTCores
		for i, inst := range live {
			inst.p = int(math.Round(float64(workers) * weights[i] / total))
			if inst.p < 1 {
				inst.p = 1
			}
		}
	}
}

// --- model rows for Table 5 -----------------------------------------------------

// ModelContextSwitches returns switches/second (cluster-wide, in raw
// counts) for a policy at concurrency level c. EP pins one thread per
// core and migrates only on scheduler decisions, so its rate is near
// zero; oversubscribed policies pay the OS timeslice churn the paper
// measures (Table 5: IS 0.2/8.3/18.0 ×1000 for c=1/2/5).
func ModelContextSwitches(policy string, c int) float64 {
	base := map[string]float64{"IS": 200, "MDP": 180, "MDP+": 120, "EP": 200}[policy]
	if c <= 1 {
		return base
	}
	slope := map[string]float64{"IS": 5900, "MDP": 3270, "MDP+": 2250}[policy]
	return base + slope*math.Pow(float64(c-1), 1.1)
}

// ModelCacheMiss returns the average data cache miss ratio for a policy
// at concurrency c. The mechanism (Section 5.4): thread migration and
// working-set churn grow with oversubscription; EP's pinned workers
// keep the baseline locality of the workload (0.41 in Table 5).
func ModelCacheMiss(policy string, c int) float64 {
	const base = 0.41
	if policy == "EP" || c <= 1 {
		if policy == "MDP+" && c == 1 {
			return base
		}
		return base
	}
	miss := base + 0.115*float64(c-1)
	if miss > 0.78 {
		miss = 0.78
	}
	return miss
}

// cacheMissPenalty converts a miss-ratio delta over the workload
// baseline into a per-tuple cost inflation.
func cacheMissPenalty(miss float64) float64 {
	d := miss - 0.41
	if d < 0 {
		d = 0
	}
	return d * 1.2
}

// --- capped static (impala-sim) -------------------------------------------------

// CappedPolicy assigns each segment group a fixed per-node parallelism
// cap — the impala-sim emulation: scans fan out across cores while
// joins and aggregations run single-threaded per node [11].
type CappedPolicy struct {
	// Caps maps SegGroup ID → cores per node; Default applies to
	// unlisted groups.
	Caps    map[int]int
	Default int
}

// Name implements Policy.
func (p *CappedPolicy) Name() string { return "capped" }

// Init implements Policy.
func (p *CappedPolicy) Init(s *Sim) {
	for _, inst := range s.insts {
		c, ok := p.Caps[inst.group.ID]
		if !ok {
			c = p.Default
		}
		if c < 1 {
			c = 1
		}
		inst.p = c
	}
}

// Step implements Policy.
func (p *CappedPolicy) Step(*Sim, time.Duration) {}

// staticPartitionEff is the effective-parallelism exponent of statically
// partitioned dataflows: each worker owns a fixed input partition, so
// skew and stragglers yield sublinear scaling (the inefficiency the
// elastic iterator model removes by sharing one dataflow, Section 3).
const staticPartitionEff = 0.8

// StaticPartitionEff exposes the static-partitioning exponent for
// benchmarks emulating static engines.
func StaticPartitionEff() float64 { return staticPartitionEff }
