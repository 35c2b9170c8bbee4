// Package server is the cluster's session front end: it admits
// concurrent SQL queries against one engine.Cluster under a bounded
// admission policy — at most MaxInflight queries execute at once,
// excess arrivals wait in a FIFO queue of bounded depth, and waiting is
// bounded by a timeout — the admission control a shared cluster needs
// once "heavy traffic from millions of users" (the paper's target
// setting) replaces one benchmark query at a time.
//
// Admission is deliberately in front of the engine rather than inside
// it: the engine's own resources (query-keyed exchanges, the shared
// core-lease pools, the cluster-resident schedulers) are safe at any
// concurrency, but letting hundreds of dataflows start at once only
// trades latency for no throughput. The queue keeps the working set at
// MaxInflight and sheds the rest with typed errors the caller can
// distinguish: ErrAdmissionTimeout (waited too long), ErrQueueFull
// (queue depth exceeded), engine.ErrClosed (cluster shut down).
package server

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/telemetry"
	"repro/internal/types"
)

// ErrAdmissionTimeout is returned when a query waited longer than
// Config.QueueTimeout for an execution slot.
var ErrAdmissionTimeout = errors.New("server: admission queue timeout")

// ErrQueueFull is returned when the admission queue is at MaxQueue
// waiters and a further query arrives.
var ErrQueueFull = errors.New("server: admission queue full")

// Config tunes the admission policy.
type Config struct {
	// MaxInflight is the number of queries executing concurrently
	// (default 4).
	MaxInflight int
	// MaxQueue bounds the number of admitted-but-waiting queries
	// (default 64). Arrivals beyond it fail fast with ErrQueueFull.
	MaxQueue int
	// QueueTimeout bounds the time a query waits for a slot (default
	// 10s). Expiry fails the query with ErrAdmissionTimeout. It is also
	// how long a memory-refused query waits without any query of this
	// server finishing before it gives up (see serve).
	QueueTimeout time.Duration
}

func (c *Config) defaults() {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 10 * time.Second
	}
}

// Server serves concurrent queries on one cluster.
type Server struct {
	c   *engine.Cluster
	cfg Config

	mu       sync.Mutex
	inflight int
	queue    []*waiter // FIFO: queue[0] is next to admit
	// freed is closed by the next release(): a finished query has dropped
	// its memory reservations. Nil until a memory-refused query asks for
	// it, so the uncontended path allocates nothing.
	freed chan struct{}
}

// waiter is one query parked in the admission queue. granted is
// written under Server.mu before ch closes, resolving the race between
// a grant and a concurrent timeout/cancellation.
type waiter struct {
	ch      chan struct{}
	granted bool
}

// New wraps a cluster in an admission-controlled front end. The
// cluster stays usable directly; only queries entering through Query
// are subject to the admission policy.
func New(c *engine.Cluster, cfg Config) *Server {
	cfg.defaults()
	return &Server{c: c, cfg: cfg}
}

// Cluster returns the served cluster.
func (s *Server) Cluster() *engine.Cluster { return s.c }

// CompileCached compiles through the cluster's plan cache. Compilation
// is not admission-controlled — it holds no execution resources.
func (s *Server) CompileCached(query string) (*plan.Plan, bool, error) {
	return s.c.CompileCached(query)
}

// CatalogVersion reports the served cluster's catalog version.
func (s *Server) CatalogVersion() int64 { return s.c.CatalogVersion() }

// Query admits and executes one SQL query. It blocks in the admission
// queue when MaxInflight queries are already executing; ctx
// cancellation applies both while queued and — routed into the
// engine's fail-fast teardown — while executing.
//
// A memory-budget refusal from the engine is transient — resident
// queries release their reservations as they complete — so Query holds
// its slot and retries as they do, turning a thundering herd of large
// queries into an orderly drain (see serve).
func (s *Server) Query(ctx context.Context, sql string) (*engine.Result, error) {
	return s.serve(ctx, func(ctx context.Context) (*engine.Result, error) {
		return s.c.Exec(ctx, engine.Request{SQL: sql})
	})
}

// QueryBound admits and executes a prepared plan with bound arguments —
// Query's EXECUTE twin, under the same admission policy and
// memory-budget retry loop. sqlText labels telemetry and errors.
func (s *Server) QueryBound(ctx context.Context, p *plan.Plan, args []types.Value, sqlText string) (*engine.Result, error) {
	return s.serve(ctx, func(ctx context.Context) (*engine.Result, error) {
		return s.c.Exec(ctx, engine.Request{SQL: sqlText, Plan: p, Args: args})
	})
}

// serve runs one admitted query, retrying transient memory-budget
// refusals. A refused query retries as soon as another query of this
// server finishes (release closes freed) and, because reservations are
// also held by queries that bypass the server, on an exponential-backoff
// poll. It gives up once QueueTimeout passes without any query
// finishing: the timeout detects a stall, it does not bound how long a
// herd takes to drain — measured from admission it failed the tail of
// the herd whenever the host was slow enough. The caller's own bound on
// total waiting is ctx. The poll timer is stopped, not abandoned: a
// time.After per iteration would leave every unfired timer lingering in
// the runtime heap for its full duration.
func (s *Server) serve(ctx context.Context, run func(context.Context) (*engine.Result, error)) (*engine.Result, error) {
	if err := s.admit(ctx); err != nil {
		return nil, err
	}
	defer s.release()
	deadline := time.Now().Add(s.cfg.QueueTimeout)
	backoff := 5 * time.Millisecond
	var freed <-chan struct{}
	for {
		res, err := run(ctx)
		if !errors.Is(err, engine.ErrMemoryBudget) {
			return res, err
		}
		if freed == nil {
			// Subscribe, then try again at once: a query that finished
			// between the refusal and the subscription is not missed.
			freed = s.freedSignal()
			continue
		}
		poll := time.NewTimer(backoff)
		select {
		case <-ctx.Done():
			poll.Stop()
			return nil, ctx.Err()
		case <-freed:
		case <-poll.C:
		}
		poll.Stop()
		select {
		case <-freed: // checked last, so a finished query outranks an expired poll
			deadline = time.Now().Add(s.cfg.QueueTimeout)
		default:
			if time.Now().After(deadline) {
				return nil, err
			}
			if backoff < 160*time.Millisecond {
				backoff *= 2
			}
		}
		freed = s.freedSignal()
	}
}

// freedSignal returns the channel the next release() closes. Taken
// before the attempt whose refusal it will wait out, so no release is
// missed.
func (s *Server) freedSignal() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.freed == nil {
		s.freed = make(chan struct{})
	}
	return s.freed
}

// Stats reports the current load: executing queries and queue depth.
func (s *Server) Stats() (inflight, queued int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight, len(s.queue)
}

// admit takes an execution slot, waiting FIFO when none is free.
// Successful admissions observe their queue wait into the process
// registry's admission-wait histogram (zero on the uncontended fast
// path), so /metrics shows the admission tail, not just queue depth.
func (s *Server) admit(ctx context.Context) error {
	s.mu.Lock()
	// A free slot goes to the queue head first (strict FIFO); a new
	// arrival takes it directly only when nobody is waiting.
	if s.inflight < s.cfg.MaxInflight && len(s.queue) == 0 {
		s.inflight++
		s.mu.Unlock()
		telemetry.DefaultRegistry().Observe(telemetry.HistAdmitWait, 0)
		return nil
	}
	if len(s.queue) >= s.cfg.MaxQueue {
		s.mu.Unlock()
		return ErrQueueFull
	}
	w := &waiter{ch: make(chan struct{})}
	s.queue = append(s.queue, w)
	s.mu.Unlock()

	start := time.Now()
	timer := time.NewTimer(s.cfg.QueueTimeout)
	defer timer.Stop()
	select {
	case <-w.ch:
		telemetry.DefaultRegistry().Observe(telemetry.HistAdmitWait, time.Since(start).Seconds())
		return nil // slot transferred by release()
	case <-timer.C:
		if s.abandon(w) {
			return ErrAdmissionTimeout
		}
		telemetry.DefaultRegistry().Observe(telemetry.HistAdmitWait, time.Since(start).Seconds())
		return nil // granted concurrently with the timeout
	case <-ctx.Done():
		if s.abandon(w) {
			return ctx.Err()
		}
		// The slot arrived despite the cancellation; hand it back so
		// accounting stays balanced, then fail the query.
		s.release()
		return ctx.Err()
	}
}

// abandon removes a waiter that timed out or was cancelled. It reports
// false when release() granted the slot first — the waiter then owns a
// slot and must proceed (or release it).
func (s *Server) abandon(w *waiter) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if w.granted {
		return false
	}
	for i, q := range s.queue {
		if q == w {
			copy(s.queue[i:], s.queue[i+1:])
			s.queue[len(s.queue)-1] = nil // keep no reference to the removed waiter
			s.queue = s.queue[:len(s.queue)-1]
			break
		}
	}
	return true
}

// release returns an execution slot: the queue head inherits it
// directly (inflight stays constant), otherwise the in-flight count
// drops.
func (s *Server) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.freed != nil {
		close(s.freed)
		s.freed = nil
	}
	if len(s.queue) > 0 {
		w := s.queue[0]
		copy(s.queue, s.queue[1:])
		s.queue[len(s.queue)-1] = nil
		s.queue = s.queue[:len(s.queue)-1]
		w.granted = true
		close(w.ch)
		return
	}
	s.inflight--
}
