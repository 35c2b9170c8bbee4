package telemetry

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket latency/duration histogram: lock-free on
// the observe path (one atomic add per observation plus the sum
// accumulator) and mergeable across scopes and nodes, which is what the
// cluster-wide observability plane needs — participants snapshot their
// histograms, ship them to the coordinator, and bucket counts add.
//
// Buckets are upper bounds in ascending order; an implicit +Inf bucket
// catches the tail. Counts are per-bucket (non-cumulative) internally;
// the Prometheus exposition cumulates them at render time.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	sum    atomic.Uint64  // float64 bits, accumulated by addSum
}

// addSum accumulates v into the observation sum.
func (h *Histogram) addSum(v float64) {
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Well-known histogram instrument names. Scope-level histograms under
// these names are folded into the process registry's cumulative
// histograms when their query finishes, so /metrics sees the full
// process history, not just the bounded recent-query ring.
const (
	// HistQueryLatency is end-to-end query latency in seconds, observed
	// by the registry at Finish.
	HistQueryLatency = "query.latency_seconds"
	// HistAdmitWait is admission-queue wait in seconds (internal/server).
	HistAdmitWait = "admit.wait_seconds"
	// HistNetStall is one TCP producer's wait for send-window credit,
	// in seconds: one observation per wait.
	HistNetStall = "net.stall_seconds"
	// HistSpill is per-partition spill (or reabsorb) duration in seconds.
	HistSpill = "mem.spill_seconds"
)

// LatencyBuckets covers query end-to-end latency and admission waits:
// 1ms to 60s, roughly exponential.
var LatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60,
}

// DurationBuckets covers short intra-query waits (transmit stalls,
// spill writes): 100µs to 2.5s.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// NewHistogram creates a histogram over the given ascending upper
// bounds. The bounds slice is not copied; callers must not mutate it.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.addSum(v)
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Snapshot returns a point-in-time copy. Count() of the snapshot equals
// the sum of its bucket counts by construction, so the exposition's
// +Inf cumulative bucket always equals _count.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// MergeSnapshot folds a snapshot's observations into the histogram.
// Bucket layouts must match; mismatched snapshots are rejected so a
// merge can never silently misbucket remote observations.
func (h *Histogram) MergeSnapshot(s HistogramSnapshot) error {
	if len(s.Counts) != len(h.counts) || len(s.Bounds) != len(h.bounds) {
		return fmt.Errorf("telemetry: histogram merge: %d/%d buckets vs %d/%d",
			len(s.Bounds), len(s.Counts), len(h.bounds), len(h.counts))
	}
	for i, b := range s.Bounds {
		if b != h.bounds[i] {
			return fmt.Errorf("telemetry: histogram merge: bound %d is %g, want %g", i, b, h.bounds[i])
		}
	}
	for i, n := range s.Counts {
		if n != 0 {
			h.counts[i].Add(n)
		}
	}
	h.addSum(s.Sum)
	return nil
}

// HistogramSnapshot is a serializable point-in-time histogram state.
// Counts are per-bucket (non-cumulative); Counts[len(Bounds)] is the
// +Inf bucket.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Sum    float64   `json:"sum"`
}

// Count returns the total observations in the snapshot.
func (s HistogramSnapshot) Count() int64 {
	var n int64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Quantile estimates the q-quantile (0 < q ≤ 1) with Prometheus-style
// linear interpolation inside the containing bucket. Values landing in
// the +Inf bucket report the highest finite bound; an empty histogram
// reports 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	total := s.Count()
	if total == 0 || len(s.Counts) == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(s.Bounds) {
			// Tail bucket is unbounded; the best point estimate is the
			// highest finite bound.
			if len(s.Bounds) == 0 {
				return 0
			}
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if c == 0 {
			return hi
		}
		inBucket := rank - float64(cum-c)
		return lo + (hi-lo)*(inBucket/float64(c))
	}
	return s.Bounds[len(s.Bounds)-1]
}

// QuantileDuration is Quantile scaled back to a time.Duration, for
// seconds-valued histograms.
func (s HistogramSnapshot) QuantileDuration(q float64) time.Duration {
	return time.Duration(s.Quantile(q) * float64(time.Second))
}

// SummaryLine renders the p50/p95/p99 line printed by `claims -serve`.
func (s HistogramSnapshot) SummaryLine() string {
	return fmt.Sprintf("latency p50=%v p95=%v p99=%v (n=%d)",
		s.QuantileDuration(0.50).Round(time.Microsecond),
		s.QuantileDuration(0.95).Round(time.Microsecond),
		s.QuantileDuration(0.99).Round(time.Microsecond),
		s.Count())
}
