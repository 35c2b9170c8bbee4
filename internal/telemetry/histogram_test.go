package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 2, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// 0.005 and 0.01 land in le=0.01 (bounds are inclusive upper bounds),
	// 0.05 in le=0.1, 0.5 in le=1, and 2, 100 in +Inf.
	want := []int64{2, 1, 1, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("Count = %d, want 6", got)
	}
	if got, want := s.Sum, 0.005+0.01+0.05+0.5+2+100; math.Abs(got-want) > 1e-9 {
		t.Fatalf("Sum = %g, want %g", got, want)
	}
}

func TestHistogramCountEqualsBucketSum(t *testing.T) {
	// The exposition's +Inf cumulative bucket must equal _count exactly,
	// even under concurrent observation — guaranteed because Count() is
	// defined as the sum of buckets (no separate racy counter).
	h := NewHistogram(LatencyBuckets)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(seed*i%97) / 10)
			}
		}(w + 1)
	}
	wg.Wait()
	s := h.Snapshot()
	if got := s.Count(); got != 8000 {
		t.Fatalf("Count = %d, want 8000", got)
	}
	var n int64
	for _, c := range s.Counts {
		n += c
	}
	if n != 8000 {
		t.Fatalf("bucket sum = %d, want 8000", n)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram([]float64{1, 2})
	b := NewHistogram([]float64{1, 2})
	a.Observe(0.5)
	a.Observe(1.5)
	b.Observe(1.5)
	b.Observe(5)
	if err := a.MergeSnapshot(b.Snapshot()); err != nil {
		t.Fatalf("merge: %v", err)
	}
	s := a.Snapshot()
	if got := s.Count(); got != 4 {
		t.Fatalf("merged count = %d, want 4", got)
	}
	want := []int64{1, 2, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("merged bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if math.Abs(s.Sum-8.5) > 1e-9 {
		t.Fatalf("merged sum = %g, want 8.5", s.Sum)
	}

	// Mismatched layouts must be rejected, never misbucketed.
	c := NewHistogram([]float64{1, 3})
	if err := a.MergeSnapshot(c.Snapshot()); err == nil {
		t.Fatal("merge with mismatched bounds succeeded")
	}
	d := NewHistogram([]float64{1})
	if err := a.MergeSnapshot(d.Snapshot()); err == nil {
		t.Fatal("merge with mismatched bucket count succeeded")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{0.1, 0.2, 0.4, 0.8})
	for i := 0; i < 100; i++ {
		h.Observe(0.15) // all in le=0.2
	}
	s := h.Snapshot()
	q := s.Quantile(0.5)
	if q < 0.1 || q > 0.2 {
		t.Fatalf("p50 = %g, want within (0.1, 0.2]", q)
	}
	// Tail values report the highest finite bound.
	h2 := NewHistogram([]float64{0.1})
	h2.Observe(99)
	if got := h2.Snapshot().Quantile(0.99); got != 0.1 {
		t.Fatalf("tail quantile = %g, want 0.1", got)
	}
	// Empty histogram reports 0.
	if got := NewHistogram(LatencyBuckets).Snapshot().Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %g, want 0", got)
	}
}

func TestHistogramSummaryLine(t *testing.T) {
	h := NewHistogram(LatencyBuckets)
	for i := 0; i < 10; i++ {
		h.ObserveDuration(5 * time.Millisecond)
	}
	line := h.Snapshot().SummaryLine()
	for _, want := range []string{"p50=", "p95=", "p99=", "(n=10)"} {
		if !strings.Contains(line, want) {
			t.Fatalf("summary %q missing %q", line, want)
		}
	}
}

func TestScopeHistogram(t *testing.T) {
	sc := NewScope("q")
	h := sc.Histogram(HistNetStall, DurationBuckets)
	h.ObserveDuration(time.Millisecond)
	if again := sc.Histogram(HistNetStall, DurationBuckets); again != h {
		t.Fatal("scope returned a different histogram for the same name")
	}
	snaps := sc.HistogramSnapshot()
	if got := snaps[HistNetStall].Count(); got != 1 {
		t.Fatalf("snapshot count = %d, want 1", got)
	}
}

func TestRegistryHistogramsAndLatency(t *testing.T) {
	r := NewRegistry(false)
	sc := NewScope("q1")
	sc.Histogram(HistSpill, DurationBuckets).Observe(0.002)
	q := r.Begin(sc, "SELECT 1")
	r.Finish(q, nil)

	hs := r.Histograms()
	if got := hs[HistQueryLatency].Count(); got != 1 {
		t.Fatalf("latency count = %d, want 1", got)
	}
	if got := hs[HistSpill].Count(); got != 1 {
		t.Fatalf("spill count = %d, want 1 (scope fold at Finish)", got)
	}

	// Live queries' scope histograms merge into the view without being
	// double-counted after they finish.
	sc2 := NewScope("q2")
	sc2.Histogram(HistSpill, DurationBuckets).Observe(0.004)
	q2 := r.Begin(sc2, "SELECT 2")
	if got := r.Histograms()[HistSpill].Count(); got != 2 {
		t.Fatalf("live-merged spill count = %d, want 2", got)
	}
	r.Finish(q2, nil)
	if got := r.Histograms()[HistSpill].Count(); got != 2 {
		t.Fatalf("post-finish spill count = %d, want 2 (double-counted?)", got)
	}
}

func TestRegistrySlowLog(t *testing.T) {
	r := NewRegistry(false)
	var buf strings.Builder
	r.SetSlowLog(0, &syncWriter{w: &buf})

	sc := NewScope("q9")
	q := r.Begin(sc, "SELECT slow")
	q.SetRows(42)
	q.SetNodeBreakdown([]NodeBreakdown{{Node: 0, Rows: 20}, {Node: 1, Rows: 22}})
	r.Finish(q, nil)

	line := buf.String()
	for _, want := range []string{`"qid":"q9"`, `"sql":"SELECT slow"`, `"rows":42`, `"node":1`, `"latency_ms"`} {
		if !strings.Contains(line, want) {
			t.Fatalf("slow log %q missing %q", line, want)
		}
	}
	if !strings.HasSuffix(line, "\n") {
		t.Fatalf("slow log line not newline-terminated: %q", line)
	}

	// Threshold gating: a huge threshold suppresses the record.
	buf2 := &strings.Builder{}
	r.SetSlowLog(time.Hour, &syncWriter{w: buf2})
	q2 := r.Begin(NewScope("q10"), "SELECT fast")
	r.Finish(q2, nil)
	if buf2.Len() != 0 {
		t.Fatalf("fast query logged: %q", buf2.String())
	}
}

// syncWriter makes a strings.Builder safe for the registry's
// lock-serialized writes in tests.
type syncWriter struct {
	mu sync.Mutex
	w  *strings.Builder
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
