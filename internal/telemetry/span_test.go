package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// TestSpanDisabledIsNil checks the zero-cost-off contract: without
// EnableSpans, StartSpan returns nil, every method on the nil span is
// safe, and nothing reaches the event stream.
func TestSpanDisabledIsNil(t *testing.T) {
	sc := NewScope("off")
	sink := NewMemSink(KindSpan)
	sc.Attach(sink)
	sp := sc.StartSpan("work", "test")
	if sp != nil {
		t.Fatal("StartSpan on a span-disabled scope returned non-nil")
	}
	// The whole chain must be nil-safe so call sites need no guards.
	sp.WithNode(1).WithWorker(2).WithSegment("S0").WithOp(3).
		WithRows(10).WithBlocks(1).WithBytes(100).End()
	if sink.Len() != 0 {
		t.Fatalf("disabled scope emitted %d span events", sink.Len())
	}
	if sc.EventCount() != 0 {
		t.Fatalf("disabled scope emitted %d events", sc.EventCount())
	}
}

// TestSpanAttribution checks that an ended span carries every
// attribution field through the sink.
func TestSpanAttribution(t *testing.T) {
	sc := NewScope("on")
	sc.EnableSpans()
	if !sc.SpansEnabled() {
		t.Fatal("SpansEnabled = false after EnableSpans")
	}
	sink := NewMemSink(KindSpan)
	sc.Attach(sink)

	sp := sc.StartSpan("next filter", "op").
		WithNode(2).WithWorker(5).WithSegment("S1").WithOp(7)
	time.Sleep(time.Millisecond)
	sp.WithRows(128).WithBlocks(1).WithBytes(4096).End()

	evs := sink.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d span events, want 1", len(evs))
	}
	rec := evs[0].Rec.(SpanEnd)
	if rec.Name != "next filter" || rec.Cat != "op" {
		t.Errorf("name/cat = %q/%q", rec.Name, rec.Cat)
	}
	if rec.Node != 2 || rec.Worker != 5 || rec.Segment != "S1" || rec.Op != 7 {
		t.Errorf("attribution = node %d worker %d seg %q op %d", rec.Node, rec.Worker, rec.Segment, rec.Op)
	}
	if rec.Rows != 128 || rec.Blocks != 1 || rec.Bytes != 4096 {
		t.Errorf("volume = rows %d blocks %d bytes %d", rec.Rows, rec.Blocks, rec.Bytes)
	}
	if rec.Dur < time.Millisecond {
		t.Errorf("Dur = %v, want >= 1ms", rec.Dur)
	}
	if rec.Start < 0 || rec.Start > sc.Elapsed() {
		t.Errorf("Start = %v outside [0, %v]", rec.Start, sc.Elapsed())
	}
}

// chromeFile mirrors the trace-event JSON envelope for decoding.
type chromeFile struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestWriteChromeTrace checks the exported trace is valid trace-event
// JSON: an object with a traceEvents array of "X" duration events plus
// "M" process-name metadata, microsecond timestamps, and pid/tid
// derived from node/worker attribution.
func TestWriteChromeTrace(t *testing.T) {
	sc := NewScope("trace")
	sc.EnableSpans()
	sink := NewMemSink(KindSpan)
	sc.Attach(sink)

	sc.StartSpan("next scan", "op").WithNode(0).WithWorker(1).WithRows(50).End()
	sc.StartSpan("send ex1", "net").WithNode(1).WithWorker(0).WithBytes(2048).End()
	sc.StartSpan("query", "query").End() // unattributed: node/worker -1

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, sink.Events()); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var f chromeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	var xs, ms int
	sawMeta := false
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "X":
			xs++
			if ev.Ts < 0 || ev.Dur < 0 {
				t.Errorf("event %q: negative ts/dur", ev.Name)
			}
			if ev.Pid < 0 || ev.Tid < 0 {
				t.Errorf("event %q: negative pid/tid", ev.Name)
			}
		case "M":
			ms++
			sawMeta = true
			if xs > 0 {
				t.Error("metadata event after duration events (Perfetto wants them first)")
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if xs != 3 {
		t.Errorf("got %d X events, want 3", xs)
	}
	if !sawMeta {
		t.Error("no process_name metadata events")
	}
	// The node-0 span runs in pid 1 (pid = node+1, reserving 0 for
	// unattributed), its worker 1 in tid 2.
	found := false
	for _, ev := range f.TraceEvents {
		if ev.Ph == "X" && ev.Name == "next scan" {
			found = true
			if ev.Pid != 1 || ev.Tid != 2 {
				t.Errorf("next scan pid/tid = %d/%d, want 1/2", ev.Pid, ev.Tid)
			}
			if ev.Args["rows"] == nil {
				t.Error("next scan lost its rows arg")
			}
		}
	}
	if !found {
		t.Error("next scan span missing from trace")
	}
}
