package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Span tracing. A span is one timed slice of query work — an operator's
// Open, one Next batch, an elastic expansion, a cross-node block send, a
// scheduler tick — attributed to the query (scope), node, worker,
// segment and plan operator that produced it. Spans ride the ordinary
// event stream as SpanEnd records (emitted once, at End, carrying start
// offset and duration), so every existing sink — JSONL traces, MemSinks,
// the summary line — sees them with no new machinery, and the Chrome
// trace-event exporter below turns a captured stream into a file
// Perfetto (ui.perfetto.dev) or chrome://tracing renders as a flamegraph
// of the pipeline.
//
// The API is built to cost ~nothing when tracing is off: StartSpan
// returns nil unless the scope was explicitly span-enabled, and every
// Span method is nil-safe, so call sites write straight-line code with
// no guards and the disabled path is one atomic load — no allocations,
// no clock reads.

// SpanEnd is the event record of one completed span.
type SpanEnd struct {
	// Name is the span label ("next filter", "expand", "send", …).
	Name string `json:"name"`
	// Cat groups spans for trace viewers: "op", "elastic", "net",
	// "sched", "query".
	Cat string `json:"cat,omitempty"`
	// Node / Worker / Segment / Op attribute the span; -1 / "" mean
	// unattributed.
	Node    int    `json:"node"`
	Worker  int    `json:"worker"`
	Segment string `json:"segment,omitempty"`
	Op      int    `json:"op"`
	// Start is the scope clock when the span began; Dur its length.
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"dur_ns"`
	// Rows / Blocks / Bytes carry the span's data volume, when known.
	Rows   int64 `json:"rows,omitempty"`
	Blocks int64 `json:"blocks,omitempty"`
	Bytes  int64 `json:"bytes,omitempty"`
}

// Kind implements Record.
func (SpanEnd) Kind() Kind { return KindSpan }

// Span is an in-flight span. A nil *Span (tracing off) accepts every
// method as a no-op.
type Span struct {
	scope *Scope
	rec   SpanEnd
}

// EnableSpans switches span recording on for this scope. Off by default:
// StartSpan returns nil until someone interested in spans (the query
// registry, an EXPLAIN ANALYZE run) enables them.
func (s *Scope) EnableSpans() { s.spansOn.Store(true) }

// SpansEnabled reports whether StartSpan produces live spans.
func (s *Scope) SpansEnabled() bool { return s.spansOn.Load() }

// StartSpan begins a span, or returns nil when tracing is off. The
// disabled path is a single atomic load.
func (s *Scope) StartSpan(name, cat string) *Span {
	if !s.spansOn.Load() {
		return nil
	}
	return &Span{scope: s, rec: SpanEnd{
		Name: name, Cat: cat,
		Node: -1, Worker: -1, Op: -1,
		Start: s.Elapsed(),
	}}
}

// WithNode attributes the span to a node. Nil-safe; returns the span for
// chaining.
func (sp *Span) WithNode(node int) *Span {
	if sp != nil {
		sp.rec.Node = node
	}
	return sp
}

// WithWorker attributes the span to a worker thread.
func (sp *Span) WithWorker(worker int) *Span {
	if sp != nil {
		sp.rec.Worker = worker
	}
	return sp
}

// WithSegment attributes the span to a segment.
func (sp *Span) WithSegment(seg string) *Span {
	if sp != nil {
		sp.rec.Segment = seg
	}
	return sp
}

// WithOp attributes the span to a plan operator id.
func (sp *Span) WithOp(op int) *Span {
	if sp != nil {
		sp.rec.Op = op
	}
	return sp
}

// WithRows records the rows the span moved.
func (sp *Span) WithRows(n int64) *Span {
	if sp != nil {
		sp.rec.Rows = n
	}
	return sp
}

// WithBlocks records the blocks the span moved.
func (sp *Span) WithBlocks(n int64) *Span {
	if sp != nil {
		sp.rec.Blocks = n
	}
	return sp
}

// WithBytes records the bytes the span moved.
func (sp *Span) WithBytes(n int64) *Span {
	if sp != nil {
		sp.rec.Bytes = n
	}
	return sp
}

// End stamps the duration and emits the span as a SpanEnd event.
// Nil-safe. A span must be ended at most once; spans are one-shot and
// never reused.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.rec.Dur = sp.scope.Elapsed() - sp.rec.Start
	sp.scope.Emit(sp.rec)
}

// --- Chrome trace-event export ----------------------------------------------

// chromeEvent is one entry of the Chrome trace-event JSON format
// (docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// "X" complete events carry ts+dur; "M" metadata events name processes
// and threads.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object envelope, the shape Perfetto and
// chrome://tracing both load.
type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// WriteChromeTrace renders the SpanEnd events of the stream as Chrome
// trace-event JSON. Each span becomes one complete ("X") slice: pid is
// the node (node+1, so the unattributed -1 maps to pid 0), tid the
// worker (likewise shifted), and rows/blocks/bytes plus segment/scope
// ride in args. Non-span events are skipped, so the full event stream
// can be passed unfiltered.
func WriteChromeTrace(w io.Writer, evs []Event) error {
	tr := chromeTrace{TraceEvents: []chromeEvent{}}
	seenProc := map[int]bool{}
	for _, ev := range evs {
		se, ok := ev.Rec.(SpanEnd)
		if !ok {
			continue
		}
		pid := se.Node + 1
		tid := se.Worker + 1
		args := map[string]any{"scope": ev.Scope, "seq": ev.Seq}
		if se.Segment != "" {
			args["segment"] = se.Segment
		}
		if se.Op >= 0 {
			args["op"] = se.Op
		}
		if se.Rows != 0 {
			args["rows"] = se.Rows
		}
		if se.Blocks != 0 {
			args["blocks"] = se.Blocks
		}
		if se.Bytes != 0 {
			args["bytes"] = se.Bytes
		}
		if !seenProc[pid] {
			seenProc[pid] = true
			name := "master/unattributed"
			if se.Node >= 0 {
				name = fmt.Sprintf("node %d", se.Node)
			}
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": name},
			})
		}
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: se.Name,
			Cat:  se.Cat,
			Ph:   "X",
			Ts:   float64(se.Start.Nanoseconds()) / 1e3,
			Dur:  float64(se.Dur.Nanoseconds()) / 1e3,
			Pid:  pid,
			Tid:  tid,
			Args: args,
		})
	}
	// Stable output: slices sorted by start time render identically
	// regardless of sink interleaving.
	sort.SliceStable(tr.TraceEvents, func(i, j int) bool {
		if tr.TraceEvents[i].Ph != tr.TraceEvents[j].Ph {
			return tr.TraceEvents[i].Ph == "M"
		}
		return tr.TraceEvents[i].Ts < tr.TraceEvents[j].Ts
	})
	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}
