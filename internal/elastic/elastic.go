// Package elastic implements the elastic iterator model of Section 3:
// a segment's iterator chain is driven by a dynamically sized pool of
// worker threads that share all iterator state, so the scheduler can
// expand or shrink a running segment's intra-node parallelism in
// milliseconds without state migration.
package elastic

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/faults"
	"repro/internal/iterator"
	"repro/internal/telemetry"
)

// Config configures an elastic iterator.
type Config struct {
	// BufferCap bounds the joint data buffer, in blocks (0 → 64).
	BufferCap int
	// OrderPreserving releases output blocks in stage-beginner sequence
	// order (Section 3.2(2)). Requires a 1:1 block-preserving chain.
	OrderPreserving bool
	// MaxWorkers caps Expand (0 → unlimited).
	MaxWorkers int
	// Scope receives WorkerExpand/WorkerShrink/Barrier telemetry
	// events, labeled with Name and Node. Nil disables emission.
	Scope *telemetry.Scope
	// Name labels this segment in telemetry events.
	Name string
	// Node is the hosting node id in telemetry events.
	Node int
	// Faults optionally injects worker crashes: the injector is consulted
	// at every block boundary, and a positive verdict makes the worker
	// exit abruptly without draining — the fail-stop model the engine's
	// recovery watchdog (and the metamorphic fault tests) exercise. Nil
	// injects nothing.
	Faults *faults.Injector
	// OnWorkerExit, if non-nil, is called exactly once per worker as it
	// detaches (normal drain, shrink, and crash paths alike). The engine
	// uses it to return core slots to the node's pool.
	OnWorkerExit func()
}

// Elastic wraps a segment's iterator chain with an elastic worker pool
// and joint output buffer. It itself satisfies iterator.Iterator so the
// segment's sender (or a parent operator) can consume it with plain
// open-next-close calls.
type Elastic struct {
	child iterator.Iterator
	cfg   Config
	buf   *Buffer

	mu      sync.Mutex
	workers map[int]*worker
	order   []int // worker ids in creation order (shrink picks newest)
	nextWID int
	active  int
	sawEnd  bool
	closed  bool

	inTuples  atomic.Int64 // stage-beginner tuples processed
	outTuples atomic.Int64
	outBlocks atomic.Int64

	expandDelays delayRecorder
}

type worker struct {
	id      int
	ctx     *iterator.Ctx
	started time.Time     // when Expand was called
	began   atomic.Int64  // ns timestamp when data processing began
	termAt  atomic.Int64  // ns timestamp when termination was requested
	done    chan struct{} // closed when the goroutine exits
	// expandSpan traces Expand-to-first-work when span tracing is on
	// (nil otherwise); ended exactly once by the worker goroutine.
	expandSpan *telemetry.Span
}

// delayRecorder keeps the most recent delays for Figure 9 measurements.
type delayRecorder struct {
	mu     sync.Mutex
	delays []time.Duration
}

func (d *delayRecorder) add(v time.Duration) {
	d.mu.Lock()
	d.delays = append(d.delays, v)
	d.mu.Unlock()
}

// Take returns and clears the recorded delays.
func (d *delayRecorder) Take() []time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := d.delays
	d.delays = nil
	return out
}

// New wraps child in an elastic iterator.
func New(child iterator.Iterator, cfg Config) *Elastic {
	if cfg.BufferCap <= 0 {
		cfg.BufferCap = 64
	}
	return &Elastic{
		child:   child,
		cfg:     cfg,
		buf:     NewBuffer(cfg.BufferCap, cfg.OrderPreserving),
		workers: make(map[int]*worker),
	}
}

// Expand adds one worker thread (Section 3.1, Expand). It returns the
// worker id, or -1 if the pool is at MaxWorkers or the iterator is
// closed.
func (e *Elastic) Expand() int {
	e.mu.Lock()
	if e.closed || (e.cfg.MaxWorkers > 0 && len(e.workers) >= e.cfg.MaxWorkers) {
		e.mu.Unlock()
		return -1
	}
	id := e.nextWID
	e.nextWID++
	w := &worker{
		id:      id,
		started: time.Now(),
		done:    make(chan struct{}),
		ctx: &iterator.Ctx{
			WorkerID: id,
			Term:     &iterator.TermFlag{},
		},
	}
	w.ctx.OnBlockDone = func(tuples int) {
		e.inTuples.Add(int64(tuples))
		if w.began.Load() == 0 {
			w.began.Store(time.Now().UnixNano())
		}
	}
	e.workers[id] = w
	e.order = append(e.order, id)
	e.active++
	pool := len(e.workers)
	e.mu.Unlock()
	if e.cfg.Scope != nil {
		e.cfg.Scope.Emit(telemetry.WorkerExpand{
			Node: e.cfg.Node, Segment: e.cfg.Name, Workers: pool,
		})
		e.cfg.Scope.Gauge(telemetry.GaugeSegWorkers(e.cfg.Name)).Set(int64(pool))
		// The expansion span covers request-to-first-work — the Figure 9a
		// expansion latency, visible per worker in the trace view.
		w.expandSpan = e.cfg.Scope.StartSpan("expand", "elastic").
			WithNode(e.cfg.Node).WithWorker(id).WithSegment(e.cfg.Name)
	}
	go e.run(w)
	return id
}

// Shrink requests termination of the most recently added worker
// (Section 3.1, Shrink). It returns a channel that delivers the
// shrinkage delay — termination request to complete exit — when the
// worker has detached, or nil if there is no worker to shrink.
func (e *Elastic) Shrink() <-chan time.Duration {
	e.mu.Lock()
	var victim *worker
	for i := len(e.order) - 1; i >= 0; i-- {
		if w, ok := e.workers[e.order[i]]; ok {
			victim = w
			e.order = e.order[:i]
			break
		}
	}
	remaining := len(e.workers)
	if victim != nil {
		remaining-- // the victim detaches once it observes the request
	}
	e.mu.Unlock()
	if victim == nil {
		return nil
	}
	var shrinkSpan *telemetry.Span
	if e.cfg.Scope != nil {
		e.cfg.Scope.Emit(telemetry.WorkerShrink{
			Node: e.cfg.Node, Segment: e.cfg.Name, Workers: remaining,
		})
		e.cfg.Scope.Gauge(telemetry.GaugeSegWorkers(e.cfg.Name)).Set(int64(remaining))
		// The shrink span covers request-to-detach — the Figure 9b
		// shrinkage latency.
		shrinkSpan = e.cfg.Scope.StartSpan("shrink", "elastic").
			WithNode(e.cfg.Node).WithWorker(victim.id).WithSegment(e.cfg.Name)
	}
	victim.termAt.Store(time.Now().UnixNano())
	victim.ctx.Term.Request()
	out := make(chan time.Duration, 1)
	go func() {
		<-victim.done
		d := time.Duration(time.Now().UnixNano() - victim.termAt.Load())
		shrinkSpan.End()
		out <- d
	}()
	return out
}

// run is the worker thread's main loop (Appendix Algorithm 2).
func (e *Elastic) run(w *worker) {
	defer e.finish(w)
	st := e.child.Open(w.ctx)
	if w.began.Load() == 0 {
		w.began.Store(time.Now().UnixNano())
	}
	e.expandDelays.add(time.Duration(w.began.Load() - w.started.UnixNano()))
	w.expandSpan.End()
	if st == iterator.Terminated {
		return
	}
	// Crashes are injected only at block boundaries (before the worker
	// pulls its next block), so no in-flight data is lost with the
	// worker: everything it has applied lives in shared operator state,
	// everything it has not pulled is still in the child. That makes a
	// crash semantically a shrink nobody asked for — recoverable by
	// re-expansion without state repair.
	var blocks int64
	for {
		if e.cfg.Faults.WorkerCrash(e.cfg.Node, e.cfg.Name, w.id, blocks) {
			e.crashed(w, blocks)
			return
		}
		b, st := e.child.Next(w.ctx)
		switch st {
		case iterator.OK:
			e.outTuples.Add(int64(b.NumTuples()))
			e.outBlocks.Add(1)
			e.buf.Insert(b)
			blocks++
		case iterator.Terminated:
			return
		case iterator.End:
			e.mu.Lock()
			e.sawEnd = true
			e.mu.Unlock()
			return
		}
	}
}

// crashed records an injected worker crash on the telemetry scope.
func (e *Elastic) crashed(w *worker, blocks int64) {
	if e.cfg.Scope == nil {
		return
	}
	e.cfg.Scope.Counter(telemetry.CtrFaultsInjected).Inc()
	e.cfg.Scope.Emit(telemetry.FaultInjected{
		Site: "worker", Fault: "crash",
		Segment: e.cfg.Name, Worker: w.id, Seq: uint64(blocks),
	})
}

func (e *Elastic) finish(w *worker) {
	// Release any barrier memberships the worker still holds. Stage
	// beginners (scan, merger) no longer deregister inside Next when they
	// observe a termination request — a downstream operator may still
	// flush the worker's partial output block and apply it to shared
	// state after that point. Blocking operators deregister on their own
	// Terminated unwind (after parking state); this catches pipelines
	// without one.
	w.ctx.BroadcastExit()
	// The exit hook runs before the worker leaves the pool, so a pool
	// that reached end-of-flow, or whose Close returned, has run it for
	// every worker.
	if e.cfg.OnWorkerExit != nil {
		e.cfg.OnWorkerExit()
	}
	e.mu.Lock()
	delete(e.workers, w.id)
	e.active--
	lastOut := e.active == 0 && e.sawEnd
	e.mu.Unlock()
	close(w.done)
	if lastOut {
		e.buf.CloseEOF()
		// The dataflow barrier: every worker drained and the joint
		// buffer reached end-of-flow.
		if e.cfg.Scope != nil {
			e.cfg.Scope.Emit(telemetry.Barrier{Node: e.cfg.Node, Segment: e.cfg.Name})
			// Instant span so the barrier shows up on the trace timeline.
			e.cfg.Scope.StartSpan("barrier", "elastic").
				WithNode(e.cfg.Node).WithSegment(e.cfg.Name).End()
		}
	}
}

// Parallelism returns the current worker count.
func (e *Elastic) Parallelism() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.workers)
}

// PendingWorkers returns the number of workers NOT yet chosen as shrink
// victims. Parallelism still counts a victim until its goroutine exits
// (shrinkage takes up to one block's processing time, Section 3.1), so
// a don't-shrink-the-last-worker guard based on Parallelism can fire
// twice in quick succession and empty the pool; guards must use this
// count instead.
func (e *Elastic) PendingWorkers() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.order)
}

// Finished reports whether the dataflow ended and all workers exited.
func (e *Elastic) Finished() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sawEnd && e.active == 0
}

// Dead reports whether the pool has lost every worker without reaching
// end-of-flow: it once had workers, none remain, no worker saw End, and
// the iterator was not closed. A dead pool's consumer is blocked on the
// joint buffer forever unless someone re-expands — the condition the
// engine's recovery watchdog polls for after injected worker crashes.
func (e *Elastic) Dead() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.nextWID > 0 && e.active == 0 && !e.sawEnd && !e.closed
}

// ExpandDelays drains the recorded expansion delays (Figure 9a).
func (e *Elastic) ExpandDelays() []time.Duration { return e.expandDelays.Take() }

// Probe is a point-in-time metrics snapshot consumed by the dynamic
// scheduler (Section 4.3-4.4).
type Probe struct {
	Parallelism int
	InTuples    int64 // cumulative stage-beginner tuples processed
	OutTuples   int64
	BufferLen   int
	BufferCap   int
	InsertWaits int64 // workers blocked on full buffer (over-producing)
	RemoveWaits int64 // consumer blocked on empty buffer (under-producing)
	Finished    bool
}

// Snapshot returns current metrics.
func (e *Elastic) Snapshot() Probe {
	_, iw, rw := e.buf.Stats()
	return Probe{
		Parallelism: e.Parallelism(),
		InTuples:    e.inTuples.Load(),
		OutTuples:   e.outTuples.Load(),
		BufferLen:   e.buf.Len(),
		BufferCap:   e.buf.Cap(),
		InsertWaits: iw,
		RemoveWaits: rw,
		Finished:    e.Finished(),
	}
}

// --- iterator.Iterator ------------------------------------------------------

// Open implements iterator.Iterator for the consuming parent; the worker
// pool is managed via Expand/Shrink, so Open itself is a no-op.
func (e *Elastic) Open(ctx *iterator.Ctx) iterator.Status { return iterator.OK }

// Next returns the next buffered output block, blocking until one is
// available or the dataflow ends.
func (e *Elastic) Next(ctx *iterator.Ctx) (*block.Block, iterator.Status) {
	b, ok := e.buf.Remove()
	if !ok {
		return nil, iterator.End
	}
	return b, iterator.OK
}

// Close terminates all workers, waits for them, and closes the child.
func (e *Elastic) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	var pending []*worker
	for _, w := range e.workers {
		w.termAt.Store(time.Now().UnixNano())
		w.ctx.Term.Request()
		pending = append(pending, w)
	}
	e.mu.Unlock()
	e.buf.CloseEOF() // release workers blocked on a full buffer
	for _, w := range pending {
		<-w.done
	}
	e.child.Close()
}
