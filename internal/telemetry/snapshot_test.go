package telemetry

import (
	"encoding/json"
	"testing"
	"time"
)

func TestScopeSnapshotRoundTrip(t *testing.T) {
	sc := NewScope("frag")
	sc.Counter(CtrNetBytes).Add(100)
	sc.Counter(OpCtr(3, OpRows)).Add(500)
	g := sc.Gauge(GaugeMemBytes)
	g.Set(2048)
	g.Set(512)
	sc.Histogram(HistNetStall, DurationBuckets).Observe(0.001)

	snap := sc.Snapshot(2)
	if snap.Node != 2 || snap.Scope != "frag" {
		t.Fatalf("snapshot header: %+v", snap)
	}

	// The wire format is JSON; the merge must survive it.
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var wire ScopeSnapshot
	if err := json.Unmarshal(b, &wire); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}

	dst := NewScope("coord")
	dst.Counter(CtrNetBytes).Add(7)
	dst.Gauge(GaugeMemBytes).Set(1000)
	dst.MergeSnapshot(&wire)

	if got := dst.Counter(CtrNetBytes).Load(); got != 107 {
		t.Fatalf("merged net.bytes = %d, want 107", got)
	}
	if got := dst.Counter(OpCtr(3, OpRows)).Load(); got != 500 {
		t.Fatalf("merged op rows = %d, want 500", got)
	}
	mg := dst.Gauge(GaugeMemBytes)
	if got := mg.Load(); got != 1512 {
		t.Fatalf("merged gauge cur = %d, want 1512", got)
	}
	// Peak merges by summation: 1000 (local peak) + 2048 (remote peak).
	if got := mg.Peak(); got != 3048 {
		t.Fatalf("merged gauge peak = %d, want 3048", got)
	}
	if got := dst.HistogramSnapshot()[HistNetStall].Count(); got != 1 {
		t.Fatalf("merged histogram count = %d, want 1", got)
	}
}

func TestMergeSnapshotSumsAcrossNodes(t *testing.T) {
	// The tentpole invariant: merged coordinator counters equal the sum
	// of per-node scope counters.
	coord := NewScope("coord")
	var want int64
	for node := 0; node < 3; node++ {
		part := NewScope("part")
		v := int64(100 * (node + 1))
		part.Counter(OpCtr(1, OpRows)).Add(v)
		want += v
		coord.MergeSnapshot(part.Snapshot(node))
	}
	if got := coord.Counter(OpCtr(1, OpRows)).Load(); got != want {
		t.Fatalf("merged = %d, want %d", got, want)
	}
}

func TestSnapshotAddSpansAndReplay(t *testing.T) {
	remote := NewScope("part")
	remote.EnableSpans()
	sink := NewMemSink(KindSpan)
	remote.Attach(sink)
	remote.StartSpan("probe", "exec").WithWorker(1).End()

	snap := remote.Snapshot(3)
	snap.AddSpans(sink.Events())
	if len(snap.Spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(snap.Spans))
	}
	if snap.Spans[0].Node != 3 {
		t.Fatalf("span node = %d, want 3 (stamped by AddSpans)", snap.Spans[0].Node)
	}

	coord := NewScope("coord")
	coord.EnableSpans()
	got := NewMemSink(KindSpan)
	coord.Attach(got)
	coord.ReplaySpans(snap)
	evs := got.Events()
	if len(evs) != 1 {
		t.Fatalf("replayed spans = %d, want 1", len(evs))
	}
	se := evs[0].Rec.(SpanEnd)
	if se.Name != "probe" || se.Node != 3 || se.Worker != 1 {
		t.Fatalf("replayed span %+v", se)
	}
	if se.Start < 0 {
		t.Fatalf("replayed span start %v < 0", se.Start)
	}
}

func TestReplaySpansShiftsClock(t *testing.T) {
	// A remote scope born 50ms after the coordinator replays its spans
	// shifted +50ms, so one Chrome trace timeline orders both nodes.
	coord := NewScope("coord")
	snap := &ScopeSnapshot{
		Node:        1,
		StartUnixNs: coord.StartTime().Add(50 * time.Millisecond).UnixNano(),
		Spans:       []SpanEnd{{Name: "late", Node: 1, Start: 10 * time.Millisecond, Dur: time.Millisecond}},
	}
	sink := NewMemSink(KindSpan)
	coord.Attach(sink)
	coord.ReplaySpans(snap)
	se := sink.Events()[0].Rec.(SpanEnd)
	if se.Start != 60*time.Millisecond {
		t.Fatalf("shifted start = %v, want 60ms", se.Start)
	}
}

func TestSnapshotCounterAccessor(t *testing.T) {
	var nilSnap *ScopeSnapshot
	if got := nilSnap.Counter("x"); got != 0 {
		t.Fatalf("nil snapshot counter = %d", got)
	}
	sn := &ScopeSnapshot{Counters: map[string]int64{"a": 5}}
	if got := sn.Counter("a"); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if got := sn.Counter("missing"); got != 0 {
		t.Fatalf("missing counter = %d, want 0", got)
	}
}
