package telemetry

import "time"

// Scope serialization for the cluster observability plane. A
// distributed query's participants each run their fragment under a
// local Scope; at fragment end they serialize the scope into a
// ScopeSnapshot and ship it to the coordinator over the control plane.
// The coordinator merges every snapshot into the query's own scope —
// counters add, gauge peaks accumulate, histograms merge bucket-wise,
// spans replay shifted onto the coordinator's clock — so EXPLAIN
// ANALYZE and the Chrome trace describe the whole cluster while every
// per-node view stays available for skew analysis.

// ScopeSnapshot is one node's serialized share of a distributed
// query's telemetry: every instrument the fragment wrote, plus the
// captured spans, attributed to the producing node.
type ScopeSnapshot struct {
	// Scope is the producing scope's name (participant-local).
	Scope string `json:"scope"`
	// Node is the data-node id the fragment ran on.
	Node int `json:"node"`
	// TraceID correlates the snapshot with the coordinator's trace
	// context (ExecSpec.TraceID); empty when tracing was not requested.
	TraceID string `json:"trace_id,omitempty"`
	// StartUnixNs is the scope's wall-clock creation time. Span Start
	// offsets are relative to it; the coordinator uses the delta of
	// start times to shift remote spans onto its own timeline.
	StartUnixNs int64 `json:"start_unix_ns"`
	// DurNs is the scope's elapsed clock at snapshot time.
	DurNs int64 `json:"dur_ns"`

	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]GaugeValue        `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Spans      []SpanEnd                    `json:"spans,omitempty"`
}

// Snapshot serializes the scope's instruments, attributed to node.
// Spans are retained by sinks, not the scope itself — callers holding a
// span-capturing MemSink add them with AddSpans.
func (s *Scope) Snapshot(node int) *ScopeSnapshot {
	return &ScopeSnapshot{
		Scope:       s.name,
		Node:        node,
		StartUnixNs: s.start.UnixNano(),
		DurNs:       int64(s.Elapsed()),
		Counters:    s.CounterSnapshot(),
		Gauges:      s.GaugeSnapshot(),
		Histograms:  s.HistogramSnapshot(),
	}
}

// AddSpans extracts the SpanEnd records of a captured event stream
// into the snapshot, stamping unattributed spans with the snapshot's
// node so the merged timeline never loses the producer.
func (sn *ScopeSnapshot) AddSpans(evs []Event) {
	for _, ev := range evs {
		se, ok := ev.Rec.(SpanEnd)
		if !ok {
			continue
		}
		if se.Node < 0 {
			se.Node = sn.Node
		}
		sn.Spans = append(sn.Spans, se)
	}
}

// Counter returns a snapshot counter (0 when absent).
func (sn *ScopeSnapshot) Counter(name string) int64 {
	if sn == nil {
		return 0
	}
	return sn.Counters[name]
}

// MergeSnapshot folds a participant snapshot into the scope. Merge
// semantics (DESIGN.md §16):
//
//   - counters add — merged totals equal the sum of
//     per-node scopes by construction;
//   - gauges: current values add; peaks add too, making the merged
//     peak the sum of per-node peaks — an upper bound, since the nodes'
//     high-water marks need not coincide in time;
//   - histograms merge bucket-wise (layouts must match; mismatches
//     drop the remote histogram rather than misbucket it).
//
// Spans are not merged here — ReplaySpans re-emits them with clock
// shifting so attached sinks observe them as ordinary span events.
func (s *Scope) MergeSnapshot(sn *ScopeSnapshot) {
	if sn == nil {
		return
	}
	for name, v := range sn.Counters {
		if v != 0 {
			s.Counter(name).Add(v)
		}
	}
	for name, gv := range sn.Gauges {
		g := s.Gauge(name)
		if gv.Cur != 0 {
			g.cur.Add(gv.Cur)
		}
		g.MergePeak(gv.Peak)
	}
	for name, hs := range sn.Histograms {
		h := s.Histogram(name, hs.Bounds)
		h.MergeSnapshot(hs) //nolint:errcheck // mismatched layouts are dropped by contract
	}
}

// ReplaySpans re-emits a snapshot's spans onto the scope, shifting
// each span's start offset by the difference of the two scopes'
// wall-clock start times so every node shares the coordinator's
// timeline. Processes on one machine share a clock; cross-machine skew
// shifts whole nodes without reordering within a node.
func (s *Scope) ReplaySpans(sn *ScopeSnapshot) {
	if sn == nil || len(sn.Spans) == 0 {
		return
	}
	shift := time.Duration(sn.StartUnixNs - s.start.UnixNano())
	for _, se := range sn.Spans {
		se.Start += shift
		if se.Start < 0 {
			se.Start = 0
		}
		s.Emit(se)
	}
}
