// Package telemetry is the unified observability substrate behind the
// engine, the simulator, the dynamic scheduler, the elastic iterators
// and the network transports. The paper's entire evaluation (Section 5)
// is built on measurements — parallelism timelines, scheduler
// decisions, CPU/network utilization, memory peaks — and every layer of
// this repository records them through one shared mechanism:
//
//   - named atomic Counters, Gauges and Histograms, registered per
//     Scope;
//   - a stream of typed events (see records.go) fanned out to the
//     Sinks attached to the scope (see sinks.go) — a scope retains no
//     events itself;
//   - one Scope per query (or per simulation run), threaded through
//     execution, so concurrent queries never mix streams, and one per
//     process behind the Registry for what belongs to no one query.
//
// engine.ExecStats and EXPLAIN ANALYZE are views computed from a
// query's scope instead of keeping independent bookkeeping.
package telemetry

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic integer counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value that additionally records its
// high-water mark.
type Gauge struct{ cur, peak atomic.Int64 }

// Set updates the gauge, raising the peak if exceeded.
func (g *Gauge) Set(v int64) {
	g.cur.Store(v)
	for {
		p := g.peak.Load()
		if v <= p || g.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// Add shifts the gauge by d, raising the peak if exceeded.
func (g *Gauge) Add(d int64) {
	v := g.cur.Add(d)
	for {
		p := g.peak.Load()
		if v <= p || g.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.cur.Load() }

// Peak returns the high-water mark.
func (g *Gauge) Peak() int64 { return g.peak.Load() }

// MergePeak raises the high-water mark by d without touching the
// current value — the gauge merge rule for distributed snapshots, where
// the cluster-wide peak is conservatively the sum of per-node peaks
// (node peaks need not coincide in time, so the sum is an upper bound).
func (g *Gauge) MergePeak(d int64) {
	if d > 0 {
		g.peak.Add(d)
	}
}

// Well-known instrument names shared across layers, so sinks and tests
// can find the same quantity regardless of the substrate that produced
// it.
const (
	// CtrNetBytes counts bytes that crossed node boundaries (both
	// transports count identically: only inter-node traffic).
	CtrNetBytes = "net.bytes"
	// CtrNetBlocks counts blocks that crossed node boundaries.
	CtrNetBlocks = "net.blocks"
	// CtrSchedOverheadNs is cumulative wall time inside scheduler ticks.
	CtrSchedOverheadNs = "sched.overhead_ns"
	// CtrSchedDecisions counts applied scheduler moves.
	CtrSchedDecisions = "sched.decisions"
	// CtrPlanCacheHits / Misses / Evictions are process-cumulative
	// plan-cache counters (Registry.Counter); the per-cluster numbers
	// live on the cache itself.
	CtrPlanCacheHits      = "plan.cache.hits"
	CtrPlanCacheMisses    = "plan.cache.misses"
	CtrPlanCacheEvictions = "plan.cache.evictions"
	// CtrFastPathQueries counts queries executed on the serial
	// fast path (the high-QPS serving path) instead of the full
	// distributed dataflow.
	CtrFastPathQueries = "engine.fastpath.queries"
	// CtrProtoRequests / Errors count client-protocol requests served
	// and requests that returned an error frame; CtrProtoWrites counts
	// the writes their replies took on the socket (one per reply, more
	// for a result past the early-flush bound, fewer when pipelined
	// requests share one).
	CtrProtoRequests = "proto.requests"
	CtrProtoErrors   = "proto.errors"
	CtrProtoWrites   = "proto.writes"
	// GaugeMemBytes tracks materialized state (staging + operator
	// arenas); its peak is the Table 4 footprint.
	GaugeMemBytes = "mem.bytes"
	// CtrFaultsInjected counts faults the injector applied (all sites).
	CtrFaultsInjected = "faults.injected"
	// CtrNetRetries counts retransmission attempts of the reliable
	// transport path.
	CtrNetRetries = "net.retries"
	// CtrNetDupDropped counts duplicate frames the receiver suppressed
	// via block sequence numbers (retransmits that raced a late ack,
	// or injected duplicates).
	CtrNetDupDropped = "net.dup_dropped"
	// CtrNetDupApplied counts duplicate frames applied to an inbox. The
	// sequence-number protocol makes this impossible by construction;
	// the counter is defensive instrumentation and must stay 0.
	CtrNetDupApplied = "net.dup_applied"
	// CtrNetCorruptDropped counts frames the receiver rejected on a
	// checksum mismatch.
	CtrNetCorruptDropped = "net.corrupt_dropped"
	// CtrRecoverExpands counts dead worker pools re-expanded on
	// surviving workers by the engine's recovery watchdog.
	CtrRecoverExpands = "recover.expands"
	// CtrSpillEvents counts operator partitions spilled to disk under
	// memory pressure (the degradation ladder's last rung).
	CtrSpillEvents = "mem.spill.events"
	// CtrSpillBytes counts bytes serialized into spill files.
	CtrSpillBytes = "mem.spill.bytes"
	// CtrSpillErrors counts spill I/O failures; the operator then falls
	// back to unbudgeted in-memory state, so a non-zero value flags a
	// soft budget violation rather than a wrong result.
	CtrSpillErrors = "mem.spill.errors"
	// CtrMemRefusedExpands counts elective worker-pool expansions the
	// engine refused at the memory high watermark (the degradation
	// ladder's first rung).
	CtrMemRefusedExpands = "mem.refused_expands"
	// CtrNetStallNs is cumulative time senders spent waiting for their
	// turn on the node's transmit scheduler — the flow-scheduling
	// overhead one exchange pays to fairness. Per-exchange splits live
	// under ExCtr(ex, "stall_ns").
	CtrNetStallNs = "net.stall_ns"
	// CtrNetAckSendErrors counts ack writes that failed even after the
	// one-shot fresh-connection retry; each one costs the sender a full
	// retransmit timeout.
	CtrNetAckSendErrors = "net.ack_send_errors"
	// CtrNetBatches counts wire batches written (one write syscall each).
	CtrNetBatches = "net.batches"
	// CtrNetBatchFrames counts frames carried inside those batches;
	// frames/batches is the realized coalescing factor.
	CtrNetBatchFrames = "net.batch_frames"
	// CtrNetGapDropped counts in-window frames the receiver discarded
	// because an earlier frame of the stream was still missing (go-back-N
	// re-delivers them in order after the retransmit).
	CtrNetGapDropped = "net.gap_dropped"
)

// Per-operator instrument names. Instrumented queries (EXPLAIN ANALYZE,
// span-traced runs) register one counter family per plan operator, keyed
// by the operator's plan-wide id; EXPLAIN ANALYZE renders straight from
// these counters, so its numbers cannot drift from telemetry.
const (
	// OpRows counts tuples the operator emitted.
	OpRows = "rows"
	// OpBlocks counts blocks the operator emitted.
	OpBlocks = "blocks"
	// OpBusyNs is cumulative worker time inside the operator's Next
	// (its whole subtree included — render layers subtract children for
	// self time).
	OpBusyNs = "busy_ns"
	// OpOpenNs is cumulative worker time inside Open.
	OpOpenNs = "open_ns"
	// OpNextCalls counts Next invocations.
	OpNextCalls = "next_calls"
	// OpMemBytes is a gauge of the operator's budgeted state bytes; its
	// peak is the per-operator figure EXPLAIN ANALYZE reports.
	OpMemBytes = "mem_bytes"
	// OpPartsRead counts the table partitions a scan read: a scan
	// pinned to its table's partition key reads only the key's owners.
	OpPartsRead = "parts_read"
)

// OpCtr names one per-operator counter: "op.<id>.<what>".
func OpCtr(op int, what string) string {
	return "op." + strconv.Itoa(op) + "." + what
}

// ExCtr names one per-exchange counter: "ex.<id>.<what>". The network
// layer splits node-wide quantities per exchange — cross-node rows,
// blocks and bytes, transmit stalls — so EXPLAIN ANALYZE can attribute
// them to plan edges.
func ExCtr(ex int, what string) string {
	return "ex." + strconv.Itoa(ex) + "." + what
}

// GaugeSegWorkers names the per-segment worker-pool gauge the elastic
// layer maintains; its peak is the segment's maximum parallelism.
func GaugeSegWorkers(segment string) string {
	return "seg." + segment + ".workers"
}

// Scope is one query's (or one simulation run's, or one process's)
// telemetry stream: instruments registered by name plus an event
// fan-out to the attached sinks. All methods are safe for concurrent
// use.
type Scope struct {
	name  string
	start time.Time
	clock func() time.Duration // overrides wall time (virtual-time sims)
	seq   atomic.Uint64

	// spansOn gates StartSpan (see span.go); off until EnableSpans.
	spansOn atomic.Bool

	// The instrument tables, by name, under one lock. Callers resolve
	// an instrument where a dataflow is wired and hold the pointer, so
	// the lock is off every per-block path.
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	sinks atomic.Pointer[[]Sink]
}

// instrument returns the table's entry for name, made by mk on first
// use.
func instrument[T any](s *Scope, table *map[string]*T, name string, mk func() *T) *T {
	s.mu.RLock()
	v := (*table)[name]
	s.mu.RUnlock()
	if v != nil {
		return v
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if v = (*table)[name]; v == nil {
		if *table == nil {
			*table = make(map[string]*T)
		}
		v = mk()
		(*table)[name] = v
	}
	return v
}

// snapshot reads every entry of a table.
func snapshot[T, V any](s *Scope, table *map[string]*T, read func(*T) V) map[string]V {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]V, len(*table))
	for name, v := range *table {
		out[name] = read(v)
	}
	return out
}

// Option configures a Scope.
type Option func(*Scope)

// WithClock makes the scope stamp events with the given clock instead
// of wall time since creation — the simulator passes its virtual clock.
func WithClock(clock func() time.Duration) Option {
	return func(s *Scope) { s.clock = clock }
}

// NewScope creates a scope. Sinks registered via AttachDefault are
// attached automatically.
func NewScope(name string, opts ...Option) *Scope {
	s := &Scope{
		name:  name,
		start: time.Now(),
	}
	for _, o := range opts {
		o(s)
	}
	if d := defaultSinks.Load(); d != nil {
		cp := append([]Sink(nil), (*d)...)
		s.sinks.Store(&cp)
	}
	return s
}

// Name returns the scope name.
func (s *Scope) Name() string { return s.name }

// Elapsed returns the scope clock: virtual time when configured,
// otherwise wall time since creation.
func (s *Scope) Elapsed() time.Duration {
	if s.clock != nil {
		return s.clock()
	}
	return time.Since(s.start)
}

// Counter returns the named integer counter, creating it on first use.
func (s *Scope) Counter(name string) *Counter {
	return instrument(s, &s.counters, name, func() *Counter { return new(Counter) })
}

// Gauge returns the named gauge, creating it on first use.
func (s *Scope) Gauge(name string) *Gauge {
	return instrument(s, &s.gauges, name, func() *Gauge { return new(Gauge) })
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (later calls keep the original bounds).
func (s *Scope) Histogram(name string, bounds []float64) *Histogram {
	return instrument(s, &s.hists, name, func() *Histogram { return NewHistogram(bounds) })
}

// HistogramSnapshot returns all histograms by name — the histogram
// counterpart of CounterSnapshot, consumed by scope serialization and
// the registry's cumulative fold.
func (s *Scope) HistogramSnapshot() map[string]HistogramSnapshot {
	return snapshot(s, &s.hists, (*Histogram).Snapshot)
}

// StartTime returns the wall-clock instant the scope was created — the
// clock base span offsets are relative to, needed to shift a remote
// scope's spans onto a coordinator's timeline.
func (s *Scope) StartTime() time.Time { return s.start }

// Attach adds a sink; subsequent events fan out to it. Attach is
// copy-on-write, so Emit never takes a lock to read the sink list.
func (s *Scope) Attach(sink Sink) {
	for {
		old := s.sinks.Load()
		var cp []Sink
		if old != nil {
			cp = append(cp, (*old)...)
		}
		cp = append(cp, sink)
		if s.sinks.CompareAndSwap(old, &cp) {
			return
		}
	}
}

// Emit stamps the record with the scope clock and a sequence number
// and fans it out to the attached sinks. With no sink attached nobody
// can read the event, so it costs the sequence bump alone.
func (s *Scope) Emit(rec Record) {
	seq := s.seq.Add(1)
	sinks := s.sinks.Load()
	if sinks == nil {
		return
	}
	ev := Event{Scope: s.name, Seq: seq, At: s.Elapsed(), Rec: rec}
	for _, sink := range *sinks {
		sink.Emit(ev)
	}
}

// EventCount returns the number of events emitted so far.
func (s *Scope) EventCount() uint64 { return s.seq.Load() }

// CounterSnapshot returns all integer counters by name.
func (s *Scope) CounterSnapshot() map[string]int64 {
	return snapshot(s, &s.counters, (*Counter).Load)
}

// GaugeValue is one integer gauge's snapshot: current value plus
// high-water mark.
type GaugeValue struct {
	Cur  int64 `json:"cur"`
	Peak int64 `json:"peak"`
}

// GaugeSnapshot returns all integer gauges by name, with peaks — the
// gauge counterpart of CounterSnapshot, consumed by the /metrics
// exposition and the /queries JSON.
func (s *Scope) GaugeSnapshot() map[string]GaugeValue {
	return snapshot(s, &s.gauges, func(g *Gauge) GaugeValue {
		return GaugeValue{Cur: g.Load(), Peak: g.Peak()}
	})
}

// --- process-wide default sinks ---------------------------------------------

var defaultSinks atomic.Pointer[[]Sink]

// AttachDefault registers a sink attached to every Scope created
// afterwards — how `epbench -trace` captures events from deep inside
// the bench harness without threading a scope through every call.
func AttachDefault(sink Sink) {
	for {
		old := defaultSinks.Load()
		var cp []Sink
		if old != nil {
			cp = append(cp, (*old)...)
		}
		cp = append(cp, sink)
		if defaultSinks.CompareAndSwap(old, &cp) {
			return
		}
	}
}

// ResetDefault clears the default sink list (tests).
func ResetDefault() { defaultSinks.Store(nil) }
