package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/sql"
	"repro/internal/telemetry"
)

// span is one timed call into a layer. Spans of one statement share
// stmt; parent is the index of the span that caused this one, -1 at
// the root.
type span struct {
	name       string
	stmt       int
	conn       int
	parent     int
	start, end time.Duration // since the tracer's epoch
}

// tracer records spans in memory; they are written out once, when the
// run ends. It lives in the benchmark: spans wrap the calls into each
// layer's exported functions, nothing inside the engine is touched.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	stmts int
}

func (t *tracer) newStmt() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stmts++
	return t.stmts
}

func (t *tracer) start(name string, stmt, conn, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, stmt: stmt, conn: conn, parent: parent, start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part
// its children cover, and returns the durations of every span by name.
func (t *tracer) selfTimes() (self map[string]time.Duration, durs map[string][]float64) {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	self = map[string]time.Duration{}
	durs = map[string][]float64{}
	for i, s := range t.spans {
		d := s.end - s.start
		self[s.name] += d - child[i]
		durs[s.name] = append(durs[s.name], float64(d))
	}
	return self, durs
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto): one track per connection, the
// statement number and parent span in args.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{Name: s.name, Cat: "benchmark", Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.conn, Args: map[string]int{"stmt": s.stmt, "span": i, "parent": s.parent}}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedRun is the state of one traced window: the tracer, a private
// mirror of the plan cache for the replay (so replays neither warm nor
// pollute the cluster's), and what the replays observed.
type tracedRun struct {
	e     *env
	t     *tracer
	cache *plan.Cache
	tmpl  *plan.Plan // the PREPAREd template, on prepared workloads

	mu        sync.Mutex
	firstRow  []float64 // ns from send to first row
	socket    []float64 // ns the socket call took beyond its own replay
	replays   int
	wireBytes int64 // EPQ1 request + reply bytes of replayed statements
	net       netTotals
}

// netTotals sums the exchange-fabric counters of replayed statements.
type netTotals struct {
	bytes, batches, frames, stallNs, retries int64
}

func newTracedRun(e *env) (*tracedRun, error) {
	tr := &tracedRun{e: e, t: &tracer{epoch: time.Now()},
		cache: plan.NewCache(e.cluster.Config().PlanCacheSize)}
	if e.w.prepared {
		p, err := plan.Compile(lookupSQL+"$1", e.cluster.Catalog())
		if err != nil {
			return nil, err
		}
		tr.tmpl = p
	}
	return tr, nil
}

// executeTraced runs one sampled statement: the socket call under a
// client.roundtrip span, then an in-process replay of the same
// statement, one span per layer, under inproc.total. It returns the
// time the socket call ended and how long the replay took after it, so
// that neither the recorded latency nor the connection's active time
// includes the replay. A replay that fails or returns a wrong result
// fails the statement.
func (tr *tracedRun) executeTraced(conn int, c *client.Conn, s *stmt, t0 time.Time) (ok bool, err error, end time.Time, replay time.Duration) {
	t := tr.t
	sid := t.newStmt()
	root := t.start("statement", sid, conn, -1)
	rt := t.start("client.roundtrip", sid, conn, root)
	var first time.Time
	ok, err = tr.e.execute(c, s, &first)
	end = time.Now()
	t.end(rt)
	if err == nil {
		in := t.start("inproc.total", sid, conn, root)
		err = tr.replay(sid, conn, in, s)
		replay = time.Since(end)
		t.end(in)
		if err == nil {
			tr.mu.Lock()
			tr.firstRow = append(tr.firstRow, float64(first.Sub(t0)))
			tr.socket = append(tr.socket, float64(end.Sub(t0)-replay))
			tr.mu.Unlock()
		} else {
			ok = false
		}
	}
	t.end(root)
	return ok, err, end, replay
}

// replay takes the statement through the layers a served statement
// crosses, calling each layer's exported entry point directly: text
// statements normalize, look the plan up and on a miss parse and
// compile; every statement then binds, runs and encodes its reply.
func (tr *tracedRun) replay(sid, conn, parent int, s *stmt) error {
	t, c := tr.t, tr.e.cluster
	step := func(name string, fn func() error) error {
		i := t.start(name, sid, conn, parent)
		err := fn()
		t.end(i)
		return err
	}
	p := tr.tmpl
	if p == nil {
		var key string
		if err := step("sql.normalize", func() (err error) { key, err = sql.Normalize(s.text); return }); err != nil {
			return err
		}
		version := c.CatalogVersion()
		var hit bool
		step("plan.cache_get", func() error { p, hit = tr.cache.Get(key, version); return nil })
		if !hit {
			var ast *sql.SelectStmt
			if err := step("sql.parse", func() (err error) { ast, err = sql.Parse(s.text); return }); err != nil {
				return err
			}
			if err := step("plan.compile", func() (err error) {
				if p, err = plan.CompileStmt(ast, c.Catalog()); err == nil {
					tr.cache.Put(key, version, p)
				}
				return
			}); err != nil {
				return err
			}
		}
	}
	if err := step("plan.bind", func() error {
		b, err := p.AcquireBound(s.args)
		if err == nil {
			p.ReleaseBound(b)
		}
		return err
	}); err != nil {
		return err
	}
	var res *engine.Result
	if err := step("engine.run", func() (err error) { res, err = c.RunBound(context.Background(), p, s.args, s.text); return }); err != nil {
		return err
	}
	var w countWriter
	if err := step("protocol.encode", func() error { _, err := encodeResult(&w, nil, res); return err }); err != nil {
		return err
	}
	if !checkOf(res).matches(s.want) {
		return fmt.Errorf("replay of %q: wrong result", s.text)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.replays++
	tr.wireBytes += w.n + requestBytes(tr.e.w, s)
	tr.net.add(res)
	return nil
}

func (n *netTotals) add(res *engine.Result) {
	n.bytes += res.Stats.NetworkBytes
	if sc := res.Scope; sc != nil {
		n.batches += sc.Counter(telemetry.CtrNetBatches).Load()
		n.frames += sc.Counter(telemetry.CtrNetBatchFrames).Load()
		n.stallNs += sc.Counter(telemetry.CtrNetStallNs).Load()
		n.retries += sc.Counter(telemetry.CtrNetRetries).Load()
	}
}

// countWriter discards what is written and counts it.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// encodeResult frames a result the way the protocol server streams it:
// schema, one frame per block, done. scratch is reused and returned.
func encodeResult(w io.Writer, scratch []byte, res *engine.Result) ([]byte, error) {
	scratch = protocol.AppendSchema(scratch[:0], res.Names, res.Schema)
	if err := protocol.WriteFrame(w, protocol.MsgSchema, scratch); err != nil {
		return scratch, err
	}
	var rows uint64
	for _, b := range res.Blocks {
		rows += uint64(b.NumTuples())
		scratch = b.EncodeAppend(scratch[:0])
		if err := protocol.WriteFrame(w, protocol.MsgBlock, scratch); err != nil {
			return scratch, err
		}
	}
	scratch = binary.LittleEndian.AppendUint64(scratch[:0], rows)
	return scratch, protocol.WriteFrame(w, protocol.MsgDone, scratch)
}

// requestBytes is the size of the statement's request frame.
func requestBytes(w *workload, s *stmt) int64 {
	var cw countWriter
	if !w.prepared {
		protocol.WriteFrame(&cw, protocol.MsgQuery, []byte(s.text))
		return cw.n
	}
	pl := protocol.AppendString(nil, "lookup")
	pl = binary.LittleEndian.AppendUint16(pl, uint16(len(s.args)))
	for _, v := range s.args {
		pl = protocol.AppendValue(pl, v)
	}
	protocol.WriteFrame(&cw, protocol.MsgExecute, pl)
	return cw.n
}

// layerShares prints each layer's share of the traced statements' time
// and whether the replay's children account for its total.
func (tr *tracedRun) layerShares(out io.Writer) {
	self, durs := tr.t.selfTimes()
	total := self["client.roundtrip"]
	var childSum time.Duration
	names := make([]string, 0, len(self))
	for name, d := range self {
		switch name {
		case "statement", "client.roundtrip":
			continue
		case "inproc.total":
		default:
			childSum += d
		}
		names = append(names, name)
		total += d
	}
	sort.Strings(names)
	fmt.Fprintf(out, "  traced statements: %d (one in %d), spans: %d\n", tr.t.stmts, tr.e.w.traceEvery, len(tr.t.spans))
	fmt.Fprintf(out, "  %-18s %12s %8s %8s\n", "span", "self", "share", "n")
	row := func(name string) {
		fmt.Fprintf(out, "  %-18s %12v %7.1f%% %8d\n", name, self[name].Round(time.Microsecond),
			100*float64(self[name])/float64(total), len(durs[name]))
	}
	row("client.roundtrip")
	for _, name := range names {
		row(name)
	}
	var inTotal float64
	for _, d := range durs["inproc.total"] {
		inTotal += d
	}
	if inTotal > 0 {
		ratio := float64(childSum) / inTotal
		verdict := "within 25%"
		if ratio < 0.75 || ratio > 1.25 {
			verdict = "NOT within 25%"
		}
		fmt.Fprintf(out, "  replay children sum to %.1f%% of inproc.total: %s\n", 100*ratio, verdict)
	}
}
