package engine

import (
	"fmt"
	"time"

	"repro/internal/sched"
	"repro/internal/telemetry"
)

// segAdapter exposes a running segment instance to the dynamic
// scheduler (sched.SegmentHandle): it derives the Section 4 metrics —
// instantaneous processing rate, visit rate from block tails,
// starvation and blockage flags — from the elastic iterator's counters,
// and maps Expand/Shrink onto the worker pool.
type segAdapter struct {
	e    *exec
	inst *segInst
	name string

	lastAt          time.Time
	lastIn          int64
	lastInsertWaits int64
}

func newSegAdapter(e *exec, inst *segInst) *segAdapter {
	return &segAdapter{
		e:      e,
		inst:   inst,
		name:   fmt.Sprintf("S%d@%d", inst.seg.ID, inst.node),
		lastAt: time.Now(),
	}
}

// Name implements sched.SegmentHandle.
func (a *segAdapter) Name() string { return a.name }

// Metrics implements sched.SegmentHandle.
func (a *segAdapter) Metrics() sched.Metrics {
	now := time.Now()
	snap := a.inst.el.Snapshot()
	dt := now.Sub(a.lastAt).Seconds()
	if dt <= 0 {
		dt = 1e-9
	}
	rate := float64(snap.InTuples-a.lastIn) / dt
	blocked := snap.InsertWaits > a.lastInsertWaits

	// Starved: nothing processed, upstream still open, and every inbox
	// empty — the segment cannot use more cores (Figure 11's S2 while
	// the filter selectivity is zero). Scan-rooted segments without
	// mergers are never starved: their input is resident.
	starved := false
	if rate == 0 && !snap.Finished && len(a.inst.inboxes) > 0 && !a.inst.hasScan {
		starved = true
		for _, in := range a.inst.inboxes {
			if in.Len() > 0 || in.AllProducersDone() {
				starved = false
				break
			}
		}
	}

	visit := 1.0
	for _, m := range a.inst.mergers {
		if v := m.VisitRate(); v > 0 {
			visit = v
		}
	}

	a.lastAt = now
	a.lastIn = snap.InTuples
	a.lastInsertWaits = snap.InsertWaits

	return sched.Metrics{
		Parallelism: snap.Parallelism,
		Rate:        rate,
		VisitRate:   visit,
		Starved:     starved,
		Blocked:     blocked,
		Done:        snap.Finished,
	}
}

// Expand implements sched.SegmentHandle. Scheduler expansions are
// elective: they fail when the node's core-lease pool is exhausted by
// other segments (of this or any concurrent query), except on a pool
// with no worker left, which oversubscribes rather than stall the
// dataflow (exec.expand). A pool a crash emptied is the engine
// watchdog's to re-expand.
func (a *segAdapter) Expand() bool {
	if a.inst.el.Finished() {
		return false
	}
	return a.e.expand(a.inst, false)
}

// Shrink implements sched.SegmentHandle. The last worker is never
// shrunk away: a zero-worker segment would never drive its dataflow to
// end-of-file. The guard counts workers not already marked for
// termination — Parallelism still includes exiting victims, so it would
// let back-to-back scheduler ticks drain the pool to zero.
func (a *segAdapter) Shrink() bool {
	if a.inst.el.PendingWorkers() <= 1 {
		return false
	}
	return a.inst.el.Shrink() != nil
}

// DecisionScope implements sched.ScopedHandle: scheduling decisions
// that touch this segment land on its query's telemetry scope, so each
// of the (possibly many) queries sharing the cluster-resident
// schedulers sees exactly its own moves.
func (a *segAdapter) DecisionScope() *telemetry.Scope { return a.e.scope }
