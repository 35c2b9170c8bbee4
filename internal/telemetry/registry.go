package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Registry tracks the process's queries — in-flight and recently
// finished — so a live observability surface (the admin HTTP server)
// can list them, expose their instruments, and export their span
// traces without being wired into every call path. The engine begins a
// record on every query it runs when a default registry is installed.
type Registry struct {
	// captureSpans makes Begin enable span tracing on each query's
	// scope and attach a span-retaining sink, so /queries/<id>/trace
	// has data. It also instruments per-operator counters in the engine
	// (the engine instruments whenever the scope is span-enabled).
	captureSpans bool
	// keepRecent bounds the finished-query history.
	keepRecent int

	mu     sync.Mutex
	live   map[string]*QueryRecord
	recent []*QueryRecord // oldest first, at most keepRecent

	started atomic.Int64
	done    atomic.Int64

	// proc holds the process-cumulative instruments: counters that
	// belong to no one query (plan-cache hits, protocol requests, ...)
	// and histograms — query scopes' histograms are folded in at Finish
	// (so history survives recent-ring eviction), process-level
	// observers (admission wait, query latency) write here directly via
	// Observe. It is a Scope like any query's, so the two share one
	// instrument table.
	proc *Scope

	// slowMu guards the slow-query log configuration; Finish emits one
	// JSONL record per query at or over the threshold.
	slowMu    sync.Mutex
	slowThres time.Duration
	slowW     io.Writer
}

// defaultKeepRecent bounds the finished-query ring of a registry.
const defaultKeepRecent = 32

// NewRegistry creates a registry. captureSpans turns on span tracing
// (and therefore per-operator instrumentation) for every registered
// query.
func NewRegistry(captureSpans bool) *Registry {
	return &Registry{
		captureSpans: captureSpans,
		keepRecent:   defaultKeepRecent,
		live:         make(map[string]*QueryRecord),
		proc:         NewScope("process"),
	}
}

// QueryRecord is one tracked query.
type QueryRecord struct {
	// ID is the scope name ("q17"), unique per process.
	ID string
	// SQL is the query text, when known ("" for direct plan runs).
	SQL string
	// Scope is the query's telemetry stream.
	Scope *Scope
	// Started is the wall-clock begin time.
	Started time.Time

	// spans retains the query's span events when the registry captures
	// them; nil otherwise.
	spans *MemSink

	mu    sync.Mutex
	done  bool
	err   string
	dur   time.Duration
	rows  int64
	nodes []NodeBreakdown
}

// NodeBreakdown is one participant's share of a distributed query,
// recorded for the slow-query log and /queries surface. For
// single-process queries there is exactly one entry (node = the
// coordinator).
type NodeBreakdown struct {
	Node         int   `json:"node"`
	Rows         int64 `json:"rows"`
	BusyMS       int64 `json:"busy_ms"`
	MemPeakBytes int64 `json:"mem_peak_bytes"`
	NetBytes     int64 `json:"net_bytes"`
}

// Begin registers a query and returns its record; Finish must be called
// when the query completes. With captureSpans the scope is span-enabled
// and a retaining sink attached before any execution event fires.
func (r *Registry) Begin(sc *Scope, sql string) *QueryRecord {
	if r == nil {
		return nil
	}
	q := &QueryRecord{ID: sc.Name(), SQL: sql, Scope: sc, Started: time.Now()}
	if r.captureSpans {
		sc.EnableSpans()
		q.spans = NewMemSink(KindSpan)
		sc.Attach(q.spans)
	}
	r.started.Add(1)
	r.mu.Lock()
	r.live[q.ID] = q
	r.mu.Unlock()
	return q
}

// Finish marks the record done (err may be nil) and moves it from the
// live set to the recent ring. End-to-end latency is observed into the
// cumulative HistQueryLatency histogram, the query scope's histograms
// are folded into the cumulative set (so evicted queries keep
// contributing to /metrics), and a slow-query record is emitted when a
// slow log is configured and the query met the threshold.
func (r *Registry) Finish(q *QueryRecord, err error) {
	if r == nil || q == nil {
		return
	}
	q.mu.Lock()
	q.done = true
	q.dur = time.Since(q.Started)
	if err != nil {
		q.err = err.Error()
	}
	q.mu.Unlock()
	r.done.Add(1)
	r.Observe(HistQueryLatency, q.dur.Seconds())
	if q.Scope != nil {
		r.proc.MergeSnapshot(&ScopeSnapshot{Histograms: q.Scope.HistogramSnapshot()})
	}
	r.logSlow(q)
	r.mu.Lock()
	delete(r.live, q.ID)
	r.recent = append(r.recent, q)
	if n := len(r.recent) - r.keepRecent; n > 0 {
		// Copy the survivors down and nil the vacated tail: a plain
		// re-slice would keep the evicted records — scopes, captured
		// spans and all — reachable through the backing array forever.
		copy(r.recent, r.recent[n:])
		for i := r.keepRecent; i < len(r.recent); i++ {
			r.recent[i] = nil
		}
		r.recent = r.recent[:r.keepRecent]
	}
	r.mu.Unlock()
}

// State reports "running", "error", or "done".
func (q *QueryRecord) State() string {
	q.mu.Lock()
	defer q.mu.Unlock()
	switch {
	case !q.done:
		return "running"
	case q.err != "":
		return "error"
	default:
		return "done"
	}
}

// Err returns the failure message ("" for success or still running).
func (q *QueryRecord) Err() string {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.err
}

// Duration returns the completed runtime, or time-so-far while running.
func (q *QueryRecord) Duration() time.Duration {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.done {
		return q.dur
	}
	return time.Since(q.Started)
}

// Spans returns the retained span events (nil without span capture).
func (q *QueryRecord) Spans() []Event {
	if q.spans == nil {
		return nil
	}
	return q.spans.Events()
}

// SetRows records the result-row count; the engine sets it before
// Finish so the slow-query log and /queries can report it.
func (q *QueryRecord) SetRows(n int64) {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.rows = n
	q.mu.Unlock()
}

// Rows returns the recorded result-row count (0 until set).
func (q *QueryRecord) Rows() int64 {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.rows
}

// SetNodeBreakdown records the per-node shares of a distributed query
// (available on analyzed runs, where participants ship stats back).
func (q *QueryRecord) SetNodeBreakdown(nodes []NodeBreakdown) {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.nodes = nodes
	q.mu.Unlock()
}

// NodeBreakdowns returns the recorded per-node shares (nil when the
// query ran without stats shipping).
func (q *QueryRecord) NodeBreakdowns() []NodeBreakdown {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.nodes
}

// Queries lists every tracked query, in-flight first, then recent
// (oldest first within each group, by start time).
func (r *Registry) Queries() []*QueryRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*QueryRecord, 0, len(r.live)+len(r.recent))
	for _, q := range r.live {
		out = append(out, q)
	}
	// map iteration order is random; sort the live group by start time
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Started.Before(out[j-1].Started); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	out = append(out, r.recent...)
	return out
}

// Lookup finds a tracked query by id (live or recent), or nil.
func (r *Registry) Lookup(id string) *QueryRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	if q, ok := r.live[id]; ok {
		return q
	}
	for i := len(r.recent) - 1; i >= 0; i-- {
		if r.recent[i].ID == id {
			return r.recent[i]
		}
	}
	return nil
}

// Counts reports how many queries the registry has seen begin and
// finish.
func (r *Registry) Counts() (started, done int64) {
	return r.started.Load(), r.done.Load()
}

// --- process-cumulative instruments ------------------------------------------

// Histogram returns (creating on first use) a process-cumulative
// histogram. Nil-safe: a nil registry returns a throwaway histogram so
// observers need no guard.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return NewHistogram(bounds)
	}
	return r.proc.Histogram(name, bounds)
}

// Counter returns (creating on first use) a process-cumulative
// counter. Nil-safe: a nil registry returns a throwaway counter so
// callers need no guard.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	return r.proc.Counter(name)
}

// Counters snapshots every process-cumulative counter. Nil-safe.
func (r *Registry) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	return r.proc.CounterSnapshot()
}

// Observe records one value into a cumulative histogram, choosing the
// bucket layout by the instrument name's convention (latency-scale for
// query/admission, short-duration otherwise). Nil-safe.
func (r *Registry) Observe(name string, v float64) {
	if r == nil {
		return
	}
	bounds := DurationBuckets
	if name == HistQueryLatency || name == HistAdmitWait {
		bounds = LatencyBuckets
	}
	r.Histogram(name, bounds).Observe(v)
}

// Histograms returns the process's histogram families: the cumulative
// set (which already includes every finished query, folded at Finish)
// merged with live queries' scope histograms. The recent ring is NOT
// re-merged — its queries contributed at Finish.
func (r *Registry) Histograms() map[string]HistogramSnapshot {
	if r == nil {
		return nil
	}
	out := r.proc.HistogramSnapshot()
	r.mu.Lock()
	live := make([]*QueryRecord, 0, len(r.live))
	for _, q := range r.live {
		live = append(live, q)
	}
	r.mu.Unlock()
	for _, q := range live {
		if q.Scope == nil {
			continue
		}
		for name, hs := range q.Scope.HistogramSnapshot() {
			cur, ok := out[name]
			if !ok {
				out[name] = hs
				continue
			}
			acc := NewHistogram(cur.Bounds)
			acc.MergeSnapshot(cur) //nolint:errcheck // same layout
			if acc.MergeSnapshot(hs) == nil {
				out[name] = acc.Snapshot()
			}
		}
	}
	return out
}

// --- slow-query log ----------------------------------------------------------

// SetSlowLog configures the slow-query log: queries finishing at or
// over threshold emit one JSON line to w. A zero threshold logs every
// query; a nil writer disables logging.
func (r *Registry) SetSlowLog(threshold time.Duration, w io.Writer) {
	if r == nil {
		return
	}
	r.slowMu.Lock()
	r.slowThres = threshold
	r.slowW = w
	r.slowMu.Unlock()
}

// slowRecord is the JSONL schema of one slow-query log line.
type slowRecord struct {
	TS        string          `json:"ts"`
	QID       string          `json:"qid"`
	SQL       string          `json:"sql,omitempty"`
	LatencyMS float64         `json:"latency_ms"`
	Rows      int64           `json:"rows"`
	Error     string          `json:"error,omitempty"`
	Nodes     []NodeBreakdown `json:"nodes,omitempty"`
}

// logSlow emits the query's slow-log line if a log is configured and
// the threshold was met. Serialization happens outside the config lock;
// the write itself is serialized so concurrent finishes can't interleave
// lines.
func (r *Registry) logSlow(q *QueryRecord) {
	r.slowMu.Lock()
	w, thres := r.slowW, r.slowThres
	r.slowMu.Unlock()
	if w == nil {
		return
	}
	q.mu.Lock()
	rec := slowRecord{
		TS:        q.Started.Format(time.RFC3339Nano),
		QID:       q.ID,
		SQL:       q.SQL,
		LatencyMS: float64(q.dur) / float64(time.Millisecond),
		Rows:      q.rows,
		Error:     q.err,
		Nodes:     q.nodes,
	}
	dur := q.dur
	q.mu.Unlock()
	if dur < thres {
		return
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	b = append(b, '\n')
	r.slowMu.Lock()
	if r.slowW != nil {
		r.slowW.Write(b) //nolint:errcheck // best-effort log
	}
	r.slowMu.Unlock()
}

// --- process default ---------------------------------------------------------

var defaultRegistry atomic.Pointer[Registry]

// SetDefaultRegistry installs the process-wide registry the engine
// registers queries on; nil uninstalls it.
func SetDefaultRegistry(r *Registry) { defaultRegistry.Store(r) }

// DefaultRegistry returns the installed registry, or nil.
func DefaultRegistry() *Registry { return defaultRegistry.Load() }
