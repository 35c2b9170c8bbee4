package sched

import (
	"math"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// fakeSeg is a synthetic segment whose rate follows a configurable
// speedup curve: rate = base · speedup(parallelism).
type fakeSeg struct {
	mu      sync.Mutex
	name    string
	par     int
	base    float64
	visit   float64
	speedup func(p int) float64
	starved bool
	blocked bool
	done    bool
	stageID int
	maxPar  int
	expands int // Expand calls, granted or refused
}

func newFakeSeg(name string, base, visit float64) *fakeSeg {
	return &fakeSeg{
		name: name, base: base, visit: visit, maxPar: 64,
		speedup: func(p int) float64 { return float64(p) },
	}
}

func (f *fakeSeg) Name() string { return f.name }

func (f *fakeSeg) Metrics() Metrics {
	f.mu.Lock()
	defer f.mu.Unlock()
	rate := 0.0
	if f.par > 0 && !f.starved {
		rate = f.base * f.speedup(f.par)
	}
	return Metrics{
		Parallelism: f.par,
		Rate:        rate,
		VisitRate:   f.visit,
		Starved:     f.starved,
		Blocked:     f.blocked,
		Done:        f.done,
		Stage:       f.stageID,
	}
}

func (f *fakeSeg) Expand() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.expands++
	if f.par >= f.maxPar {
		return false
	}
	f.par++
	return true
}

func (f *fakeSeg) Shrink() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.par == 0 {
		return false
	}
	f.par--
	return true
}

func (f *fakeSeg) parallelism() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.par
}

func tickN(s *NodeScheduler, n int) {
	for i := 0; i < n; i++ {
		s.Tick()
	}
}

func TestSchedulerAssignsFreeCores(t *testing.T) {
	bus := NewMasterBus()
	s := NewNodeScheduler(0, Config{Cores: 4}, bus)
	a := newFakeSeg("a", 100, 1)
	s.Attach(a)
	tickN(s, 6)
	if got := a.parallelism(); got != 4 {
		t.Fatalf("single segment should absorb all cores, has %d", got)
	}
}

func TestSchedulerBalancesTwoSegments(t *testing.T) {
	// b processes 3 tuples per core-second for every tuple a produces;
	// a is 3x slower per core. The balanced split of 12 cores is ~9:3.
	bus := NewMasterBus()
	s := NewNodeScheduler(0, Config{Cores: 12}, bus)
	a := newFakeSeg("a", 100, 1) // producer
	b := newFakeSeg("b", 300, 1) // consumer, 3x faster per core
	s.Attach(a)
	s.Attach(b)
	tickN(s, 60)
	pa, pb := a.parallelism(), b.parallelism()
	if pa+pb > 12 {
		t.Fatalf("core budget violated: %d + %d > 12", pa, pb)
	}
	if pa < pb {
		t.Fatalf("slow segment should hold more cores: a=%d b=%d", pa, pb)
	}
	if pa < 7 || pa > 10 {
		t.Fatalf("expected a≈9 cores, got a=%d b=%d", pa, pb)
	}
}

func TestSchedulerRespectsCoreBudgetInvariant(t *testing.T) {
	bus := NewMasterBus()
	s := NewNodeScheduler(0, Config{Cores: 8}, bus)
	segs := []*fakeSeg{
		newFakeSeg("s1", 50, 1),
		newFakeSeg("s2", 150, 0.5),
		newFakeSeg("s3", 80, 2),
	}
	for _, f := range segs {
		s.Attach(f)
	}
	for i := 0; i < 100; i++ {
		s.Tick()
		total := 0
		for _, f := range segs {
			total += f.parallelism()
		}
		if total > 8 {
			t.Fatalf("tick %d: Σ parallelism = %d > 8", i, total)
		}
	}
}

func TestSchedulerShrinksStarvedSegment(t *testing.T) {
	bus := NewMasterBus()
	s := NewNodeScheduler(0, Config{Cores: 8}, bus)
	a := newFakeSeg("a", 100, 1)
	b := newFakeSeg("b", 100, 1)
	s.Attach(a)
	s.Attach(b)
	tickN(s, 30)
	// b's input dries up (Figure 11 scenario).
	b.mu.Lock()
	b.starved = true
	b.mu.Unlock()
	tickN(s, 30)
	if got := b.parallelism(); got > 1 {
		t.Fatalf("starved segment still holds %d cores", got)
	}
	if got := a.parallelism(); got < 6 {
		t.Fatalf("running segment should absorb freed cores, has %d", got)
	}
}

func TestSchedulerReassignsWhenWorkloadShifts(t *testing.T) {
	scope := telemetry.NewScope("test")
	mem := telemetry.NewMemSink(telemetry.KindSchedDecision)
	scope.Attach(mem)
	bus := NewMasterBus()
	s := NewNodeScheduler(0, Config{Cores: 10, Scope: scope}, bus)
	a := newFakeSeg("a", 100, 1)
	b := newFakeSeg("b", 100, 1)
	s.Attach(a)
	s.Attach(b)
	tickN(s, 40)
	paBefore := a.parallelism()
	before := mem.Len()
	// b's per-core speed collapses 5x (selectivity burst downstream).
	b.mu.Lock()
	b.base = 20
	b.mu.Unlock()
	tickN(s, 60)
	if got := b.parallelism(); got <= 10-paBefore {
		t.Fatalf("slowed segment did not gain cores: before≈%d now b=%d", 10-paBefore, got)
	}
	// Every core is held, so the move is Algorithm 1's: a donates, b
	// receives.
	moved := 0
	for _, ev := range mem.Events()[before:] {
		d := ev.Rec.(telemetry.SchedDecision)
		if d.Reason == "algorithm1" && d.Expanded == "b" && d.Shrunk == "a" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatalf("no algorithm1 move from a to b after the shift: %+v", mem.Events()[before:])
	}
}

func TestSchedulerIgnoresBlockedSegments(t *testing.T) {
	// A network-blocked segment must not be expanded: more cores cannot
	// help a segment that waits on its output.
	bus := NewMasterBus()
	s := NewNodeScheduler(0, Config{Cores: 16}, bus)
	a := newFakeSeg("a", 100, 1)
	s.Attach(a)
	tickN(s, 3)
	base := a.parallelism()
	a.mu.Lock()
	a.blocked = true
	a.mu.Unlock()
	tickN(s, 20)
	if got := a.parallelism(); got > base {
		t.Fatalf("blocked segment expanded from %d to %d", base, got)
	}
}

func TestSchedulerReleasesDoneSegments(t *testing.T) {
	bus := NewMasterBus()
	s := NewNodeScheduler(0, Config{Cores: 4}, bus)
	a := newFakeSeg("a", 100, 1)
	b := newFakeSeg("b", 100, 1)
	s.Attach(a)
	s.Attach(b)
	tickN(s, 20)
	a.mu.Lock()
	a.done = true
	a.mu.Unlock()
	tickN(s, 20)
	if got := b.parallelism(); got < 3 {
		t.Fatalf("survivor should absorb finished segment's cores, has %d", got)
	}
}

func TestSchedulerPlateauStopsExpansion(t *testing.T) {
	// Speedup saturates at 4 cores (memory-bound, Figure 8a S-Q2):
	// the scheduler should not pile further cores onto the segment once
	// measurements show no gain.
	bus := NewMasterBus()
	s := NewNodeScheduler(0, Config{Cores: 16}, bus)
	a := newFakeSeg("a", 100, 1)
	a.speedup = func(p int) float64 { return math.Min(float64(p), 4) }
	s.Attach(a)
	tickN(s, 40)
	if got := a.parallelism(); got > 7 {
		t.Fatalf("scheduler kept expanding past the plateau: p=%d", got)
	}
}

func TestMasterBusGlobalMin(t *testing.T) {
	bus := NewMasterBus()
	bus.Publish(0, 50)
	bus.Publish(1, 30)
	bus.Publish(2, 90)
	if got := bus.Global(); got != 30 {
		t.Fatalf("global λ = %f, want 30", got)
	}
	bus.Publish(1, 100)
	if got := bus.Global(); got != 50 {
		t.Fatalf("global λ after update = %f, want 50", got)
	}
}

func TestNormalizeInfiniteWhenNoInput(t *testing.T) {
	if r := normalize(Metrics{Rate: 10, VisitRate: 0}); !math.IsInf(r, 1) {
		t.Fatalf("zero visit rate should normalize to +Inf, got %f", r)
	}
}

func TestVisitRateNormalization(t *testing.T) {
	// A segment visited twice per input tuple must be treated as half
	// as fast (Equation 3).
	bus := NewMasterBus()
	s := NewNodeScheduler(0, Config{Cores: 12}, bus)
	a := newFakeSeg("a", 100, 1)
	b := newFakeSeg("b", 100, 2) // same raw rate, double visit rate
	s.Attach(a)
	s.Attach(b)
	tickN(s, 60)
	if a.parallelism() >= b.parallelism() {
		t.Fatalf("higher-visit-rate segment should hold more cores: a=%d b=%d",
			a.parallelism(), b.parallelism())
	}
}

func TestSchedulerShrinksOverProducingSegment(t *testing.T) {
	// A network-blocked segment is over-producing (Section 2.3): it
	// must donate cores until its rate matches the sink, even with no
	// segment on the node to take them (Figure 11's scan after the
	// selectivity jump releases 25 this way).
	bus := NewMasterBus()
	s := NewNodeScheduler(0, Config{Cores: 8}, bus)
	a := newFakeSeg("a", 100, 1)
	s.Attach(a)
	tickN(s, 10)
	if a.parallelism() < 4 {
		t.Fatalf("setup: a should have grown, p=%d", a.parallelism())
	}
	a.mu.Lock()
	a.blocked = true
	a.mu.Unlock()
	tickN(s, 10)
	if got := a.parallelism(); got > 1 {
		t.Fatalf("blocked segment still holds %d cores", got)
	}
}

func TestSchedulerInvalidatesVectorOnStageChange(t *testing.T) {
	// Measurements from a finished stage must not steer the next stage
	// (Section 4.4): a segment that measured a plateau in stage 0 but
	// scales linearly in stage 1 must expand after the transition.
	bus := NewMasterBus()
	s := NewNodeScheduler(0, Config{Cores: 12}, bus)
	a := newFakeSeg("a", 100, 1)
	a.speedup = func(p int) float64 { return 1 } // stage 0: flat
	s.Attach(a)
	tickN(s, 20)
	flatP := a.parallelism()
	if flatP > 4 {
		t.Fatalf("setup: flat stage should not absorb cores, p=%d", flatP)
	}
	// Stage change: now linear.
	a.mu.Lock()
	a.stageID = 1
	a.speedup = func(p int) float64 { return float64(p) }
	a.mu.Unlock()
	tickN(s, 40)
	if got := a.parallelism(); got <= flatP+2 {
		t.Fatalf("stale vector blocked expansion after stage change: p=%d", got)
	}
}

func TestSchedulerMemWatermarks(t *testing.T) {
	// High water: expansions stop, current width is kept.
	pressure := 0.0
	bus := NewMasterBus()
	s := NewNodeScheduler(0, Config{
		Cores:       8,
		MemPressure: func() float64 { return pressure },
	}, bus)
	a := newFakeSeg("a", 100, 1)
	s.Attach(a)
	tickN(s, 4)
	grown := a.parallelism()
	if grown < 2 {
		t.Fatalf("segment never grew: %d", grown)
	}
	pressure = 0.8 // above high (0.75), below critical (0.9)
	tickN(s, 6)
	if got := a.parallelism(); got != grown {
		t.Fatalf("width changed under high water: %d -> %d", grown, got)
	}

	// Critical water: widest pool shrinks one worker per tick.
	pressure = 0.95
	s.Tick()
	if got := a.parallelism(); got != grown-1 {
		t.Fatalf("expected forced shrink to %d, got %d", grown-1, got)
	}
	s.Tick()
	if got := a.parallelism(); got != grown-2 {
		t.Fatalf("expected second forced shrink to %d, got %d", grown-2, got)
	}

	// Pressure relief: growth resumes.
	pressure = 0.1
	tickN(s, 6)
	if got := a.parallelism(); got <= grown-2 {
		t.Fatalf("did not re-expand after pressure dropped: %d", got)
	}
}

// TestFreshnessWindowEdge fixes θ's edge in rounds: a scalability-vector
// entry measured thetaRounds rounds ago is still read, one measured
// thetaRounds+1 rounds ago is not, and estimate falls back to linear
// scaling from the fresh neighbour below.
func TestFreshnessWindowEdge(t *testing.T) {
	s := NewNodeScheduler(0, Config{Cores: 8}, NewMasterBus())
	a := newFakeSeg("a", 100, 1)
	a.par, a.maxPar = 2, 2 // measured at p = 2 every round, never at 3
	s.Attach(a)
	s.Tick()
	st := s.segs[0]
	// A measurement at p = 3 that linear scaling (200·3/2 = 300) would
	// not predict.
	st.vec[3] = scalEntry{rate: 250, round: s.round}
	planted := s.round
	for s.round-planted <= thetaRounds {
		if got, fresh := s.estimate(st, 3); got != 250 || !fresh {
			t.Fatalf("entry %d rounds old: estimate %.0f (fresh %v), want the entry's 250",
				s.round-planted, got, fresh)
		}
		s.Tick()
	}
	if got, fresh := s.estimate(st, 3); got != 300 || !fresh {
		t.Fatalf("entry %d rounds old: estimate %.0f (fresh %v), want 300 scaled from t(2)",
			s.round-planted, got, fresh)
	}
}

// TestLambdaSpansPipelines pins λ's scope (DESIGN.md §3): one MasterBus
// serves every node scheduler of a cluster, so λ is the minimum over
// the segments of every concurrent pipeline, not each pipeline's own.
// A fast pipeline on node 1 reads the slow pipeline's λ from node 0: its
// segment runs far above that λ, so it is no bottleneck and gets none
// of node 1's free cores. With a bus of its own its λ would be its own
// rate, and it would take them all.
func TestLambdaSpansPipelines(t *testing.T) {
	scope := telemetry.NewScope("test")
	mem := telemetry.NewMemSink(telemetry.KindSchedDecision)
	scope.Attach(mem)
	bus := NewMasterBus() // the engine's initShared builds one per cluster
	slowNode := NewNodeScheduler(0, Config{Cores: 8, Scope: scope}, bus)
	fastNode := NewNodeScheduler(1, Config{Cores: 8, Scope: scope}, bus)
	slow := newFakeSeg("slow", 10, 1)
	slow.par, slow.maxPar = 1, 1 // the slow pipeline's bottleneck: R = 10
	fast := newFakeSeg("fast", 100, 1)
	fast.par = 1 // R = 100 at one core
	slowNode.Attach(slow)
	fastNode.Attach(fast)
	for i := 0; i < 20; i++ {
		slowNode.Tick()
		fastNode.Tick()
	}
	if got := bus.Global(); got != 10 {
		t.Fatalf("λ = %.0f, want the slow pipeline's 10", got)
	}
	if got := fast.parallelism(); got != 1 {
		t.Errorf("fast pipeline grew to %d cores under the slow pipeline's λ, want 1", got)
	}
	for _, ev := range mem.Events() {
		if d := ev.Rec.(telemetry.SchedDecision); d.Node == 1 {
			t.Errorf("node 1 moved a core: %+v", d)
		}
	}
}
