package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"testing"
	"time"
)

// FuzzScopeSnapshotJSON feeds arbitrary bytes to what a coordinator
// does with the body of a participant's /stats POST: unmarshal it into
// a ScopeSnapshot, merge that into the query's scope and replay its
// spans. Nothing a peer sends may panic the coordinator — a histogram
// whose layout disagrees with the one already registered, more or fewer
// counts than bounds, a span that starts before the scope did — and a
// snapshot the decoder accepts must survive the wire again: re-marshal
// it and it unmarshals to the same value.
func FuzzScopeSnapshotJSON(f *testing.F) {
	src := NewScope("frag")
	src.EnableSpans()
	spans := NewMemSink(KindSpan)
	src.Attach(spans)
	src.Counter(CtrNetBytes).Add(4096)
	src.Counter("ex.2.rows").Add(17)
	src.Gauge(GaugeMemBytes).Set(1 << 20)
	src.Histogram(HistNetStall, DurationBuckets).Observe(0.002)
	src.StartSpan("next scan", "op").WithNode(1).WithRows(17).End()
	snap := src.Snapshot(1)
	snap.TraceID = "t1"
	snap.AddSpans(spans.Events())
	seed, err := json.Marshal(snap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"counters":{},"gauges":{"mem.bytes":{"cur":-5,"peak":-9}}}`))
	// Same instrument name as the coordinator's, another bucket layout.
	f.Add([]byte(`{"histograms":{"net.stall_seconds":{"bounds":[1,2],"counts":[1,2,3],"sum":6}}}`))
	// Counts that do not fit the bounds, unsorted bounds, no bounds at all.
	f.Add([]byte(`{"histograms":{"a":{"bounds":[3,1],"counts":[1],"sum":1e308},"b":{"counts":[-4]},"c":{}}}`))
	// A span from before the coordinator's scope existed, with a negative length.
	f.Add([]byte(`{"start_unix_ns":-9223372036854775808,"spans":[{"name":"x","node":-1,"worker":0,"op":0,"start_ns":-7,"dur_ns":-1}]}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		var sn ScopeSnapshot
		if err := json.Unmarshal(body, &sn); err != nil {
			return
		}

		dst := NewScope("coord")
		dst.Histogram(HistNetStall, DurationBuckets).Observe(0.5)
		replayed := NewMemSink(KindSpan)
		dst.Attach(replayed)
		dst.MergeSnapshot(&sn)
		dst.ReplaySpans(&sn)
		if got := replayed.Len(); got != len(sn.Spans) {
			t.Fatalf("replayed %d of %d spans", got, len(sn.Spans))
		}
		for _, ev := range replayed.Events() {
			if se := ev.Rec.(SpanEnd); se.Start < 0 {
				t.Fatalf("replayed span %q starts at %v, before the scope", se.Name, se.Start)
			}
		}
		dst.Snapshot(0) // reads back every merged instrument

		again, err := json.Marshal(&sn)
		if err != nil {
			t.Fatalf("accepted snapshot does not marshal: %v", err)
		}
		var back ScopeSnapshot
		if err := json.Unmarshal(again, &back); err != nil {
			t.Fatalf("re-marshaled snapshot rejected: %v\n%s", err, again)
		}
		// omitempty drops empty maps and slices, so compare through one
		// more trip: the value must be a fixed point of the wire format.
		final, err := json.Marshal(&back)
		if err != nil || !bytes.Equal(final, again) {
			t.Fatalf("snapshot changes across the wire (%v):\n%s\nvs\n%s", err, again, final)
		}
		if back.Node != sn.Node || back.Scope != sn.Scope || back.DurNs != sn.DurNs ||
			len(back.Counters) != len(sn.Counters) || !slices.Equal(back.Spans, sn.Spans) {
			t.Fatalf("snapshot fields lost across the wire:\n%+v\nvs\n%+v", sn, back)
		}
	})
}

// TestMergeSnapshotHostileHistograms covers what JSON cannot carry but
// an in-process caller can hand over: NaN bounds never compare equal,
// so such a histogram is dropped — also on a second merge, against the
// NaN-bounded histogram the first one registered — rather than merged
// into the wrong buckets.
func TestMergeSnapshotHostileHistograms(t *testing.T) {
	dst := NewScope("coord")
	sn := &ScopeSnapshot{
		StartUnixNs: time.Now().Add(-time.Hour).UnixNano(),
		Histograms: map[string]HistogramSnapshot{
			"nan": {Bounds: []float64{math.NaN()}, Counts: []int64{1, 2}, Sum: math.Inf(1)},
		},
		Spans: []SpanEnd{{Name: "early", Start: -time.Minute}},
	}
	dst.MergeSnapshot(sn)
	dst.MergeSnapshot(sn)
	dst.ReplaySpans(sn)
	if got := dst.HistogramSnapshot()["nan"].Count(); got != 0 {
		t.Fatalf("NaN-bounded histogram merged %d observations, want none", got)
	}
}
