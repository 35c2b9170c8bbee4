// Package sched implements the paper's dynamic scheduler (Section 4):
// per-node core provisioning for the segments of running queries, driven
// by light-weight measurements — visit rates propagated through block
// tails (Section 4.3) and scalability vectors of instantaneous
// processing rates (Section 4.4) — and the pairwise core-reassignment
// procedure of Algorithm 1.
//
// The same scheduler drives both the real engine (internal/engine) and
// the virtual-time cluster simulator (internal/sim): segments are
// abstracted behind SegmentHandle. It reads no clock and takes no
// tuning: each Tick is one round, θ is a count of rounds, and ∆, the
// tolerance, θ and the memory watermarks are constants.
package sched

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Metrics is the per-tick measurement a segment reports (Sections
// 4.3-4.4).
type Metrics struct {
	// Parallelism is the segment's current worker count p_i.
	Parallelism int
	// Rate is the instantaneous processing rate T_i in tuples/second at
	// the current parallelism.
	Rate float64
	// VisitRate is V_i: average tuples this segment receives per
	// original input tuple of the pipeline.
	VisitRate float64
	// Starved means the measurement was input-limited (the segment had
	// no data to process); the rate under-estimates capacity and more
	// cores cannot help.
	Starved bool
	// Blocked means the measurement was output-limited (full buffer or
	// saturated network); the rate under-estimates capacity and more
	// cores cannot help.
	Blocked bool
	// Done means the segment finished and its cores are reclaimable.
	Done bool
	// Stage identifies the segment's active stage. Scalability varies
	// between stages, so the scheduler invalidates the segment's
	// scalability vector whenever the stage changes (Section 4.4).
	Stage int
}

// Limited reports whether the rate measurement under-estimates the
// segment's capacity and must not enter the scalability vector.
func (m Metrics) Limited() bool { return m.Starved || m.Blocked }

// SegmentHandle is the scheduler's view of a running segment: metrics
// plus the expand/shrink controls of the elastic iterator model.
type SegmentHandle interface {
	// Name identifies the segment for traces.
	Name() string
	// Metrics returns the current measurement snapshot.
	Metrics() Metrics
	// Expand adds one worker; it reports false when impossible.
	Expand() bool
	// Shrink removes one worker; it reports false when impossible.
	Shrink() bool
}

// ScopedHandle is an optional extension of SegmentHandle: a handle that
// carries its own telemetry scope. A cluster-resident scheduler serves
// segments of many concurrent queries at once, so decision events are
// routed to the scope of the segment a decision concerns (the query
// that gains a core) rather than one scheduler-wide scope. Handles
// without a scope fall back to Config.Scope.
type ScopedHandle interface {
	SegmentHandle
	// DecisionScope returns the telemetry scope scheduling decisions
	// about this segment are emitted on (nil falls back to Config.Scope).
	DecisionScope() *telemetry.Scope
}

// MasterBus shares the global throughput λ (Equation 3) across node
// schedulers: every node publishes its local minimum normalized rate,
// and reads the global minimum. This is the only cross-node
// coordination the algorithm needs. The engine builds one bus per
// cluster, so λ spans every concurrent query (DESIGN.md §3).
type MasterBus struct {
	mu    sync.Mutex
	nodes map[int]float64
}

// NewMasterBus returns an empty bus.
func NewMasterBus() *MasterBus { return &MasterBus{nodes: make(map[int]float64)} }

// Publish records node's local minimum normalized rate.
func (b *MasterBus) Publish(node int, v float64) {
	b.mu.Lock()
	b.nodes[node] = v
	b.mu.Unlock()
}

// Global returns λ, the minimum over every node's last publication.
func (b *MasterBus) Global() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	g := math.Inf(1)
	for _, v := range b.nodes {
		if v < g {
			g = v
		}
	}
	return g
}

// scalEntry is one slot of a scalability vector: the measured rate t_ij
// with j workers and its timestamp l_ij (Section 4.4), the scheduler
// round it was measured in. Rounds count from 1, so round 0 is an empty
// slot.
type scalEntry struct {
	rate  float64
	round int64
}

type segState struct {
	h        SegmentHandle
	name     string
	scope    *telemetry.Scope // decision-event scope (per query, may be nil)
	vec      []scalEntry      // index = parallelism (0 unused)
	last     Metrics
	stage    int
	normRate float64 // R_i = T_i / V_i
}

// Config names a node scheduler's budget and what it reports to; the
// scheduler takes no tuning.
type Config struct {
	// Cores is m, the node's core budget.
	Cores int
	// Scope receives one telemetry.SchedDecision event per core move the
	// scheduler makes. Nil disables event emission; the decision counter
	// still advances.
	Scope *telemetry.Scope
	// MemPressure reports the node's memory pressure in [0,1] (tracked
	// bytes over the node budget). Nil means memory is unmonitored and
	// the watermarks never engage.
	MemPressure func() float64
}

const (
	// delta is the improvement threshold ∆ of Algorithm 1, as a fraction
	// of λ (and of a segment's rate for a free core or a release).
	delta = 0.02
	// tolerance classifies under-performers: R_i ≤ λ·(1+tolerance).
	tolerance = 0.25
	// thetaRounds is the freshness window θ of a scalability-vector
	// entry, in the scheduler's own rounds: an entry measured θ rounds
	// ago is fresh, one θ+1 rounds ago is not (DESIGN.md §3).
	thetaRounds = 5
	// memCriticalWater is the pressure above which the scheduler
	// actively shrinks the widest pool each round, shedding working
	// memory before any operator is forced to spill.
	memCriticalWater = 0.9
)

// DefaultMemHighWater is the memory pressure at which elective pool
// expansions stop, the scheduler's and every one the engine makes:
// refusing growth is the first, cheapest rung of the degradation ladder.
const DefaultMemHighWater = 0.75

// NodeScheduler provisions the cores of one slave node (Figure 6). It
// is driven by periodic Tick calls from the engine or the simulator.
// Every scheduling move is published as a telemetry.SchedDecision event
// on the configured scope, replacing the private decision log the
// scheduler used to keep.
type NodeScheduler struct {
	node int
	cfg  Config
	bus  *MasterBus

	moves atomic.Int64

	mu    sync.Mutex
	segs  []*segState
	round int64 // rounds run so far; the clock of the scalability vectors
}

// NewNodeScheduler builds a scheduler for the given node.
func NewNodeScheduler(node int, cfg Config, bus *MasterBus) *NodeScheduler {
	return &NodeScheduler{node: node, cfg: cfg, bus: bus}
}

// Attach registers a segment that turned active on this node; it joins
// the end of the list and waits for core assignment (Figure 6). A
// ScopedHandle's decision events land on its own (per-query) scope.
func (s *NodeScheduler) Attach(h SegmentHandle) {
	scope := s.cfg.Scope
	if sh, ok := h.(ScopedHandle); ok {
		if sc := sh.DecisionScope(); sc != nil {
			scope = sc
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.segs = append(s.segs, &segState{
		h:     h,
		name:  h.Name(),
		scope: scope,
		vec:   make([]scalEntry, s.cfg.Cores+2),
	})
}

// Detach removes a segment's handle (a completing or failing query
// detaches all of its segments so the scheduler stops polling dead
// iterators). Detaching a handle that is not attached is a no-op.
func (s *NodeScheduler) Detach(h SegmentHandle) {
	s.mu.Lock()
	defer s.mu.Unlock()
	keep := s.segs[:0]
	for _, st := range s.segs {
		if st.h != h {
			keep = append(keep, st)
		}
	}
	// Clear the dropped tail so evicted segStates do not stay reachable
	// through the backing array.
	for i := len(keep); i < len(s.segs); i++ {
		s.segs[i] = nil
	}
	s.segs = keep
}

// Decisions returns the cumulative count of scheduling moves — each
// one migrates a worker thread, so the simulator charges it as a
// context switch.
func (s *NodeScheduler) Decisions() int64 { return s.moves.Load() }

// decide publishes one scheduling move that happened: the counter
// advances, and the event lands on the scope of the segment the move
// concerns (the beneficiary of an expansion, the donor of a lone shrink)
// so each query's telemetry stream sees exactly the moves that touched
// it.
func (s *NodeScheduler) decide(st *segState, d telemetry.SchedDecision) {
	d.Node = s.node
	// λ is +Inf before any segment has a measured bottleneck; JSON has
	// no representation for non-finite floats, so record it as 0
	// ("unmeasured") to keep JSONL traces losslessly encodable.
	if math.IsInf(d.Lambda, 0) || math.IsNaN(d.Lambda) {
		d.Lambda = 0
	}
	s.moves.Add(1)
	scope := s.cfg.Scope
	if st != nil && st.scope != nil {
		scope = st.scope
	}
	if scope != nil {
		scope.Emit(d)
		scope.Counter(telemetry.CtrSchedDecisions).Inc()
		// Instant span: moves dot the trace timeline next to the
		// expand/shrink spans they trigger.
		scope.StartSpan("decision "+d.Reason, "sched").
			WithNode(s.node).End()
	}
}

// Tick runs one scheduling round: refresh metrics and scalability
// vectors, publish the local λ, release cores that add nothing, apply
// the memory watermarks, hand out the cores nobody holds, and run
// Algorithm 1's pairwise reassignment.
func (s *NodeScheduler) Tick() {
	// The tick span shows scheduler activity (and its overhead) on the
	// trace timeline; no-cost when tracing is off.
	var sp *telemetry.Span
	if s.cfg.Scope != nil {
		sp = s.cfg.Scope.StartSpan("sched.tick", "sched").WithNode(s.node)
	}
	defer sp.End()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.round++

	// 1. Measurement refresh.
	active := s.segs[:0]
	used := 0
	for _, st := range s.segs {
		m := st.h.Metrics()
		st.last = m
		if m.Done {
			continue // cores implicitly released
		}
		if m.Stage != st.stage {
			// New stage, new scalability: invalidate the vector
			// (Section 4.4).
			st.stage = m.Stage
			for i := range st.vec {
				st.vec[i] = scalEntry{}
			}
		}
		if p := m.Parallelism; p >= 1 && p < len(st.vec) && !m.Limited() && m.Rate > 0 {
			st.vec[p] = scalEntry{rate: m.Rate, round: s.round}
		}
		st.normRate = normalize(m)
		active = append(active, st)
		used += m.Parallelism
	}
	// Nil the pruned tail: done segments must not stay reachable (and
	// unprunable by the GC) through the slice's backing array.
	for i := len(active); i < len(s.segs); i++ {
		s.segs[i] = nil
	}
	s.segs = active
	if len(active) == 0 {
		s.bus.Publish(s.node, math.Inf(1))
		return
	}

	// 2. Publish local bottleneck; read global λ. Starved segments are
	// excluded: their measured rate reflects missing input, not
	// capacity, and would drag λ to zero.
	localMin := math.Inf(1)
	for _, st := range active {
		if st.last.Starved {
			continue
		}
		if st.normRate < localMin {
			localMin = st.normRate
		}
	}
	s.bus.Publish(s.node, localMin)
	lambda := s.bus.Global()
	if math.IsInf(lambda, 1) {
		lambda = localMin
	}

	// 3a. Release: a segment whose last core adds nothing gives it back
	// to the node, one core per round. The three reasons are this repo's
	// rules, not Algorithm 1's: a core with no receiver on this node must
	// still go back (to other queries in the engine, to Figure 12's
	// interfering program); step 3b or a later round hands it out. The
	// counts are the releases `epbench -trace` records per figure.
	for _, st := range active {
		m := st.last
		if m.Parallelism <= 1 {
			continue
		}
		d := telemetry.SchedDecision{Shrunk: st.name, Lambda: lambda}
		switch {
		case m.Starved && m.Rate == 0:
			// Input-starved, nothing processed: Figure 13's final
			// aggregation S3 started wider than its input (660).
			d.Reason = "starved"
		case m.Blocked:
			// Output-blocked, producing faster than the network or the
			// consumers absorb (Section 2.3): Figure 11's scan S1 after the
			// selectivity jump (25). Figure 10 makes none.
			d.Reason = "over-producing"
		case m.Starved:
			continue // its rate measures its input, not its last core
		default:
			// Fresh plateau, t(p) <= t(p-1)·(1+∆): the last core buys
			// nothing. Figure 12's S1 and S2 while the interfering program
			// runs (40).
			cur, okCur := s.freshAt(st, m.Parallelism)
			below, okBelow := s.freshAt(st, m.Parallelism-1)
			if !okCur || !okBelow || cur > below*(1+delta) {
				continue
			}
			d.Reason, d.Gain = "no gain", cur-below
		}
		if st.h.Shrink() {
			st.last.Parallelism--
			used--
			s.decide(st, d)
		}
	}

	// Memory watermarks (elasticity-first degradation). Above the high
	// water the scheduler refuses all expansions — pipelines keep running
	// at their current width, so throughput degrades gracefully instead
	// of allocations failing. Above the critical water it also forces the
	// widest pool to shrink one worker per round, actively returning
	// working memory (parked states, private tables) before any operator
	// has to spill.
	pressure := 0.0
	if s.cfg.MemPressure != nil {
		pressure = s.cfg.MemPressure()
	}
	if pressure >= memCriticalWater {
		var widest *segState
		for _, st := range active {
			if st.last.Parallelism > 1 && (widest == nil || st.last.Parallelism > widest.last.Parallelism) {
				widest = st
			}
		}
		if widest != nil && widest.h.Shrink() {
			used--
			s.decide(widest, telemetry.SchedDecision{
				Shrunk: widest.name, Reason: "mem pressure", Lambda: lambda,
			})
		}
	}
	if pressure >= DefaultMemHighWater {
		return
	}

	// 3b. Free cores: hand the cores nobody holds to the most promising
	// under-performers. Unlike Algorithm 1's one-pair moves, this
	// proceeds several cores per round: the segments are waiting for
	// their first assignment (Figure 6).
	grew := make(map[*segState]int)
	for n := 0; n < freeCoresPerTick && used < s.cfg.Cores; n++ {
		// One speculative core per segment per round on the back of the
		// last measurement; a second only when the scalability vector's
		// fresh slope supports it. The next round's measurement confirms
		// or reverts either.
		cand, gain := s.pickExpand(active, lambda, grew)
		if cand == nil || !cand.h.Expand() {
			break
		}
		grew[cand]++
		cand.last.Parallelism++
		used++
		s.decide(cand, telemetry.SchedDecision{
			Expanded: cand.name, Reason: "free core", Lambda: lambda, Gain: gain,
		})
	}

	// 3c. Algorithm 1's pairwise move, every round.
	s.algorithm1(active, lambda)
}

// normalize computes R_i = T_i / V_i, treating a segment with no
// expected input as infinitely fast (never the bottleneck).
func normalize(m Metrics) float64 { return normWith(m.Rate, m.VisitRate) }

// freshAt returns the scalability-vector entry at parallelism p if it
// holds a measurement at most thetaRounds rounds old.
func (s *NodeScheduler) freshAt(st *segState, p int) (float64, bool) {
	if p >= 1 && p < len(st.vec) {
		if e := st.vec[p]; e.round > 0 && s.round-e.round <= thetaRounds {
			return e.rate, true
		}
	}
	return 0, false
}

// estimate returns the predicted processing rate of st at parallelism p
// (Section 4.4): a fresh vector entry if present, otherwise linear
// scaling from the nearest fresh neighbor, otherwise linear scaling
// from the current measurement.
func (s *NodeScheduler) estimate(st *segState, p int) (float64, bool) {
	if p < 1 {
		return 0, true
	}
	if r, ok := s.freshAt(st, p); ok {
		return r, true
	}
	// Marginal-slope extrapolation: with fresh measurements at the two
	// parallelisms below p, predict t(p) = t(p-1) + slope. On a plateau
	// the slope is ~0, so the scheduler stops predicting gains — the
	// "quickly identified and corrected" behavior of Section 4.4.
	if r1, ok1 := s.freshAt(st, p-1); ok1 {
		if r2, ok2 := s.freshAt(st, p-2); ok2 {
			slope := r1 - r2
			if slope < 0 {
				slope = 0
			}
			return r1 + slope, true
		}
		return r1 * float64(p) / float64(p-1), true
	}
	if r, ok := s.freshAt(st, p+1); ok {
		return r * float64(p) / float64(p+1), true
	}
	if st.last.Parallelism >= 1 && st.last.Rate > 0 {
		return st.last.Rate * float64(p) / float64(st.last.Parallelism), false
	}
	return 0, false
}

// pickExpand chooses the segment that benefits most from one more core,
// skipping segments in the exclude set. It returns the choice and its
// estimated throughput gain.
func (s *NodeScheduler) pickExpand(active []*segState, lambda float64,
	grew map[*segState]int) (*segState, float64) {
	var best *segState
	bestGain := 0.0
	for _, st := range active {
		m := st.last
		if m.Limited() || grew[st] >= 2 {
			continue
		}
		if m.Parallelism == 0 {
			return st, 0 // an unprovisioned segment always gets its first core
		}
		// Expansion helps only bottleneck-side segments; a segment far
		// above λ gains nothing for the pipeline.
		if st.normRate > lambda*(1+tolerance) {
			continue
		}
		est, fresh := s.estimate(st, m.Parallelism+1)
		if grew[st] >= 1 && !fresh {
			continue // a second speculative core needs measured backing
		}
		gain := est - m.Rate
		// Require a material improvement (relative to current rate) so
		// plateaued segments stop absorbing cores.
		if gain > m.Rate*delta && gain > bestGain+1e-9 {
			bestGain = gain
			best = st
		}
	}
	return best, bestGain
}

// algorithm1 is the paper's Algorithm 1: move one core from an
// over-performing segment to an under-performing one when the estimated
// post-move normalized rates of both still exceed λ+∆. A starved or
// blocked segment is an over-performer: its measured rate
// under-estimates its capacity, and one core less cannot make a segment
// that waits on its input or output the bottleneck, so its post-move
// rate counts as passing λ+∆.
func (s *NodeScheduler) algorithm1(active []*segState, lambda float64) {
	if math.IsInf(lambda, 1) || lambda <= 0 {
		return
	}
	tol := 1 + tolerance
	margin := lambda * delta

	var under, over []*segState
	for _, st := range active {
		if st.normRate <= lambda*tol && !st.last.Limited() {
			under = append(under, st)
		} else if st.last.Parallelism > 1 {
			over = append(over, st)
		}
	}
	if len(under) == 0 || len(over) == 0 {
		return
	}
	// Deterministic iteration order keeps traces reproducible.
	sort.Slice(under, func(i, j int) bool { return under[i].name < under[j].name })
	sort.Slice(over, func(i, j int) bool { return over[i].name < over[j].name })

	type move struct {
		gain   float64
		ui, oj *segState
	}
	var best *move
	for _, ui := range under {
		for _, oj := range over {
			if ui == oj {
				continue
			}
			ti, _ := s.estimate(ui, ui.last.Parallelism+1)
			tiN := normWith(ti, ui.last.VisitRate)
			tjN := math.Inf(1)
			if !oj.last.Limited() {
				tj, _ := s.estimate(oj, oj.last.Parallelism-1)
				tjN = normWith(tj, oj.last.VisitRate)
			}
			if tiN >= lambda+margin && tjN >= lambda+margin {
				gain := math.Min(tiN, tjN) - lambda
				if best == nil || gain > best.gain {
					best = &move{gain: gain, ui: ui, oj: oj}
				}
			}
		}
	}
	if best == nil {
		return
	}
	// The donor's core goes to the receiver if it takes it; a core the
	// receiver refuses (in the engine a shrunk worker returns its lease
	// only when it exits) is free, and a later round's step 3b hands it
	// out.
	if !best.oj.h.Shrink() {
		return
	}
	d := telemetry.SchedDecision{
		Shrunk: best.oj.name, Reason: "algorithm1", Lambda: lambda, Gain: best.gain,
	}
	if best.ui.h.Expand() {
		d.Expanded = best.ui.name
		s.decide(best.ui, d)
		return
	}
	s.decide(best.oj, d)
}

func normWith(rate, visit float64) float64 {
	if visit <= 0 {
		return math.Inf(1)
	}
	return rate / visit
}

// freeCoresPerTick bounds how many unassigned cores one scheduling
// round may hand out.
const freeCoresPerTick = 4
