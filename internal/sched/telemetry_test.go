package sched

import (
	"testing"

	"repro/internal/telemetry"
)

// TestSchedulerEmitsDecisions drives a scheduler over fake segments and
// retrieves its Algorithm-1 moves from a test sink — the decision
// stream that replaced the private string log.
func TestSchedulerEmitsDecisions(t *testing.T) {
	scope := telemetry.NewScope("test")
	mem := telemetry.NewMemSink(telemetry.KindSchedDecision)
	scope.Attach(mem)

	bus := NewMasterBus()
	s := NewNodeScheduler(3, Config{Cores: 4, Scope: scope}, bus)
	a := newFakeSeg("a", 100, 1)
	s.Attach(a)
	tickN(s, 6)

	if a.parallelism() != 4 {
		t.Fatalf("segment should absorb all cores, has %d", a.parallelism())
	}
	evs := mem.Events()
	if len(evs) == 0 {
		t.Fatal("no SchedDecision events on the sink")
	}
	for _, ev := range evs {
		d, ok := ev.Rec.(telemetry.SchedDecision)
		if !ok {
			t.Fatalf("sink retained non-decision record %#v", ev.Rec)
		}
		if d.Node != 3 {
			t.Errorf("decision node = %d, want 3", d.Node)
		}
		if d.Reason == "" {
			t.Error("decision without a reason")
		}
		if d.Expanded == "" && d.Shrunk == "" {
			t.Errorf("decision names no segment: %+v", d)
		}
	}
	// Free-core handouts expanded a from 1 to 4 workers: three
	// expansions with the "free core" reason.
	freeCore := 0
	for _, ev := range evs {
		d := ev.Rec.(telemetry.SchedDecision)
		if d.Reason == "free core" && d.Expanded == "a" {
			freeCore++
		}
	}
	if freeCore < 3 {
		t.Errorf("expected >=3 free-core expansions of a, got %d", freeCore)
	}
	// Every event is a move: the event count agrees with both the
	// cumulative Decisions() accessor and the shared counter.
	if got := s.Decisions(); got != int64(len(evs)) {
		t.Errorf("Decisions() = %d, decision events = %d", got, len(evs))
	}
	if got := scope.Counter(telemetry.CtrSchedDecisions).Load(); got != int64(len(evs)) {
		t.Errorf("sched.decisions counter = %d, decision events = %d", got, len(evs))
	}
}

// TestSchedulerEmitsStarvedShrink checks the starved-segment rule emits
// a shrink decision naming the starved segment.
func TestSchedulerEmitsStarvedShrink(t *testing.T) {
	scope := telemetry.NewScope("test")
	mem := telemetry.NewMemSink(telemetry.KindSchedDecision)
	scope.Attach(mem)

	bus := NewMasterBus()
	s := NewNodeScheduler(0, Config{Cores: 4, Scope: scope}, bus)
	a := newFakeSeg("a", 100, 1)
	a.par = 3
	a.starved = true
	s.Attach(a)
	tickN(s, 4)

	found := false
	for _, ev := range mem.Events() {
		d := ev.Rec.(telemetry.SchedDecision)
		if d.Reason == "starved" && d.Shrunk == "a" {
			found = true
		}
	}
	if !found {
		t.Fatal("no starved-shrink decision for a in the stream")
	}
}

// TestAlgorithm1KeepsCoreWhenReceiverRefuses: when Algorithm 1's
// receiver refuses the core, the donor stays shrunk — the core is free
// for a later round's handout — and the one decision names only the
// donor. No give-back Expand reaches the donor.
func TestAlgorithm1KeepsCoreWhenReceiverRefuses(t *testing.T) {
	scope := telemetry.NewScope("test")
	mem := telemetry.NewMemSink(telemetry.KindSchedDecision)
	scope.Attach(mem)

	bus := NewMasterBus()
	s := NewNodeScheduler(0, Config{Cores: 4, Scope: scope}, bus)
	a := newFakeSeg("a", 1000, 1) // over-performer, holds 3 of 4 cores
	a.par = 3
	b := newFakeSeg("b", 100, 1) // the bottleneck, but refuses a second worker
	b.par, b.maxPar = 1, 1
	s.Attach(a)
	s.Attach(b)
	tickN(s, 1)

	if got := a.parallelism(); got != 2 {
		t.Fatalf("donor a at p=%d, want 2 (shrunk, not given back)", got)
	}
	if a.expands != 0 {
		t.Fatalf("donor a got %d Expand calls, want none", a.expands)
	}
	if b.expands != 1 || b.parallelism() != 1 {
		t.Fatalf("receiver b: %d Expand calls at p=%d, want one refused call at p=1", b.expands, b.parallelism())
	}
	evs := mem.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d decisions, want 1: %+v", len(evs), evs)
	}
	d := evs[0].Rec.(telemetry.SchedDecision)
	if d.Reason != "algorithm1" || d.Shrunk != "a" || d.Expanded != "" {
		t.Fatalf("decision %+v, want algorithm1 shrinking a and expanding nothing", d)
	}
	if got := s.Decisions(); got != 1 {
		t.Fatalf("Decisions() = %d, want 1", got)
	}
}
