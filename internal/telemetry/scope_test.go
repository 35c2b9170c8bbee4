package telemetry

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// TestEmitSequence checks what a sink sees of one scope's stream:
// every event, in emission order, with contiguous sequence numbers and
// a clock that never runs backwards.
func TestEmitSequence(t *testing.T) {
	const emitted = 21
	sc := NewScope("seq")
	sink := NewMemSink()
	sc.Attach(sink)
	for i := 0; i < emitted; i++ {
		sc.Emit(QueryPhase{Phase: "p", Detail: fmt.Sprintf("%d", i)})
	}
	evs := sink.Events()
	if len(evs) != emitted {
		t.Fatalf("sink saw %d events, want %d", len(evs), emitted)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Errorf("events[%d].Seq = %d, want %d", i, ev.Seq, i+1)
		}
		if got := ev.Rec.(QueryPhase).Detail; got != fmt.Sprintf("%d", i) {
			t.Errorf("events[%d] detail = %q, want %q", i, got, fmt.Sprintf("%d", i))
		}
		if i > 0 && ev.At < evs[i-1].At {
			t.Errorf("events[%d].At = %v before events[%d].At = %v", i, ev.At, i-1, evs[i-1].At)
		}
	}
	if sc.EventCount() != emitted {
		t.Errorf("EventCount = %d, want %d", sc.EventCount(), emitted)
	}
}

// TestConcurrentEmitAndRegistration hammers Emit from many goroutines
// while they register instruments and snapshot the tables — the -race
// run of this test is the point. Afterwards: no event was lost on the
// sink path, sequence numbers are unique and exactly 1..N, and every
// instrument registration survived.
func TestConcurrentEmitAndRegistration(t *testing.T) {
	const (
		goroutines = 8
		perG       = 500
	)
	sc := NewScope("conc")
	sink := NewMemSink()
	sc.Attach(sink)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Interleave instrument registration with emission so
				// the instrument tables race against the fan-out.
				sc.Counter(fmt.Sprintf("ctr.%d", g)).Inc()
				sc.Gauge(fmt.Sprintf("g.%d", i%10)).Set(int64(i))
				sc.Histogram(HistNetStall, DurationBuckets).Observe(0.001)
				sc.Emit(BlockSent{From: g, Tuples: i})
				if i%50 == 0 {
					// A /metrics scrape reads the tables mid-query.
					sc.Snapshot(g)
				}
			}
		}(g)
	}
	wg.Wait()

	const total = goroutines * perG
	if sc.EventCount() != total {
		t.Fatalf("EventCount = %d, want %d", sc.EventCount(), total)
	}
	evs := sink.Events()
	if len(evs) != total {
		t.Fatalf("sink saw %d events, want %d (lost events)", len(evs), total)
	}
	seen := make(map[uint64]bool, total)
	for _, ev := range evs {
		if ev.Seq < 1 || ev.Seq > total {
			t.Fatalf("seq %d out of range [1,%d]", ev.Seq, total)
		}
		if seen[ev.Seq] {
			t.Fatalf("seq %d assigned twice", ev.Seq)
		}
		seen[ev.Seq] = true
	}

	ctrs := sc.CounterSnapshot()
	for g := 0; g < goroutines; g++ {
		name := fmt.Sprintf("ctr.%d", g)
		if ctrs[name] != perG {
			t.Errorf("counter %s = %d, want %d (lost registration or increments)", name, ctrs[name], perG)
		}
	}
	gs := sc.GaugeSnapshot()
	for i := 0; i < 10; i++ {
		if _, ok := gs[fmt.Sprintf("g.%d", i)]; !ok {
			t.Errorf("gauge g.%d lost its registration", i)
		}
	}
}

// TestGaugeSnapshotPeaks checks the snapshot accessor: current and peak
// values per gauge.
func TestGaugeSnapshotPeaks(t *testing.T) {
	sc := NewScope("snap")
	g := sc.Gauge("workers")
	g.Set(7)
	g.Set(3)
	if v := sc.GaugeSnapshot()["workers"]; v.Cur != 3 || v.Peak != 7 {
		t.Errorf("workers snapshot = %+v, want Cur=3 Peak=7", v)
	}
}

// TestNewScopeHoldsNoEventStorage pins what a scope is: instruments
// plus a fan-out. Creating one and emitting into it with no sink
// attached must not retain, or even allocate, per-event storage — every
// parallel query creates a scope, and an event nobody can read is worth
// a sequence bump and nothing else.
func TestNewScopeHoldsNoEventStorage(t *testing.T) {
	defer ResetDefault()
	ResetDefault()
	var rec Record = QueryPhase{Phase: "p"} // boxed once, outside the measurement
	measure := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sc := NewScope("bare")
		for i := 0; i < 1000; i++ {
			sc.Emit(rec)
		}
		runtime.ReadMemStats(&after)
		if sc.EventCount() != 1000 {
			t.Fatalf("EventCount = %d, want 1000", sc.EventCount())
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	// TotalAlloc is process-wide; the smallest of a few runs is the
	// scope's own share.
	best := measure()
	for i := 0; i < 4; i++ {
		if b := measure(); b < best {
			best = b
		}
	}
	if best >= 1024 {
		t.Fatalf("NewScope + 1000 sink-less Emits allocated %d bytes, want < 1024", best)
	}
}
