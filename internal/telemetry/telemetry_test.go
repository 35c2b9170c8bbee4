package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCountersAndGaugesConcurrent(t *testing.T) {
	sc := NewScope("q")
	const workers = 8
	const per = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := sc.Counter(CtrNetBytes)
			g := sc.Gauge(GaugeMemBytes)
			for i := 0; i < per; i++ {
				c.Add(2)
				g.Add(1)
				g.Add(-1)
			}
		}(w)
	}
	wg.Wait()
	if got := sc.Counter(CtrNetBytes).Load(); got != 2*workers*per {
		t.Fatalf("counter = %d, want %d", got, 2*workers*per)
	}
	g := sc.Gauge(GaugeMemBytes)
	if g.Load() != 0 {
		t.Fatalf("gauge current = %d, want 0", g.Load())
	}
	if g.Peak() < 1 || g.Peak() > workers {
		t.Fatalf("gauge peak = %d, want within [1,%d]", g.Peak(), workers)
	}
}

func TestGaugePeak(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Set(3)
	if g.Load() != 3 || g.Peak() != 10 {
		t.Fatalf("got cur=%d peak=%d", g.Load(), g.Peak())
	}
}

func TestConcurrentEmitAndSinks(t *testing.T) {
	sc := NewScope("q")
	mem := NewMemSink()
	sc.Attach(mem)
	const workers = 6
	const per = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sc.Emit(BlockSent{Exchange: w, From: 0, To: 1, Tuples: i, Bytes: 64})
			}
		}(w)
	}
	// Attach a second sink mid-stream; it sees a suffix of the stream.
	late := NewMemSink(KindBlockSent)
	sc.Attach(late)
	wg.Wait()
	if mem.Len() != workers*per {
		t.Fatalf("mem sink kept %d events, want %d", mem.Len(), workers*per)
	}
	if sc.EventCount() != workers*per {
		t.Fatalf("event count = %d, want %d", sc.EventCount(), workers*per)
	}
	if late.Len() > mem.Len() {
		t.Fatalf("late sink saw more events (%d) than the full sink (%d)", late.Len(), mem.Len())
	}
}

func TestMemSinkFilter(t *testing.T) {
	sc := NewScope("q")
	dec := NewMemSink(KindSchedDecision)
	sc.Attach(dec)
	sc.Emit(WorkerExpand{Segment: "S1", Workers: 2})
	sc.Emit(SchedDecision{Expanded: "S1", Reason: "free core"})
	sc.Emit(WorkerShrink{Segment: "S1", Workers: 1})
	if dec.Len() != 1 {
		t.Fatalf("filtered sink kept %d events, want 1", dec.Len())
	}
	d := dec.Events()[0].Rec.(SchedDecision)
	if d.Expanded != "S1" || d.Reason != "free core" {
		t.Fatalf("unexpected decision %+v", d)
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	sc := NewScope("q7")
	sc.Attach(sink)
	sc.Emit(SchedDecision{Node: 3, Expanded: "S2", Shrunk: "S1", Reason: "algorithm1",
		Lambda: 1e6, Gain: 5e4})
	sc.Emit(BlockSent{Exchange: 1, From: 0, To: 2, Tuples: 100, Bytes: 6400})
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var first struct {
		Scope string `json:"scope"`
		Seq   uint64 `json:"seq"`
		Kind  string `json:"kind"`
		Rec   struct {
			Expanded string  `json:"expanded"`
			Lambda   float64 `json:"lambda"`
		} `json:"rec"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 1 is not valid JSON: %v", err)
	}
	if first.Scope != "q7" || first.Seq != 1 || first.Kind != "SchedDecision" ||
		first.Rec.Expanded != "S2" || first.Rec.Lambda != 1e6 {
		t.Fatalf("unexpected first line: %+v", first)
	}
}

// TestJSONLSinkSurvivesUnmarshalableRecord: one record JSON cannot
// represent (a non-finite float) is dropped without poisoning the
// stream — events after it still reach the writer.
func TestJSONLSinkSurvivesUnmarshalableRecord(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	sc := NewScope("q8")
	sc.Attach(sink)
	sc.Emit(SchedDecision{Node: 1, Reason: "starved", Lambda: math.Inf(1)})
	sc.Emit(BlockSent{Exchange: 1, From: 0, To: 2, Tuples: 100, Bytes: 6400})
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := sink.Dropped(); got != 1 {
		t.Fatalf("Dropped() = %d, want 1", got)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], `"BlockSent"`) {
		t.Fatalf("expected only the BlockSent line, got %q", buf.String())
	}
}

func TestSummarySink(t *testing.T) {
	sum := NewSummarySink(nil, 0)
	sc := NewScope("q")
	sc.Attach(sum)
	sc.Emit(WorkerExpand{Segment: "S1", Workers: 1})
	sc.Emit(WorkerExpand{Segment: "S2", Workers: 1})
	sc.Emit(SchedDecision{Expanded: "S1", Reason: "free core"})
	sc.Emit(SchedDecision{Shrunk: "S2", Reason: "no gain"})
	s := sum.Summary()
	for _, want := range []string{"WorkerExpand=2", "SchedDecision=2", "free core:1", "no gain:1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary %q missing %q", s, want)
		}
	}
}

func TestDefaultSinks(t *testing.T) {
	defer ResetDefault()
	ResetDefault()
	mem := NewMemSink()
	AttachDefault(mem)
	sc := NewScope("auto")
	sc.Emit(QueryPhase{Phase: "start"})
	if mem.Len() != 1 {
		t.Fatalf("default sink saw %d events, want 1", mem.Len())
	}
	if mem.Events()[0].Scope != "auto" {
		t.Fatalf("event scope = %q", mem.Events()[0].Scope)
	}
}

func TestScopeClock(t *testing.T) {
	now := 250 * time.Millisecond
	sc := NewScope("sim", WithClock(func() time.Duration { return now }))
	mem := NewMemSink()
	sc.Attach(mem)
	sc.Emit(QueryPhase{Phase: "start"})
	if got := mem.Events()[0].At; got != 250*time.Millisecond {
		t.Fatalf("virtual At = %v, want 250ms", got)
	}
}

func TestKindStringGuard(t *testing.T) {
	if got := Kind(200).String(); got != "Kind(200)" {
		t.Fatalf("out-of-range kind = %q", got)
	}
	if got := KindBlockSent.String(); got != "BlockSent" {
		t.Fatalf("KindBlockSent = %q", got)
	}
}
