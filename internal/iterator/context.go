package iterator

import "sync"

// contextPool parks the private contexts of departing workers (Section
// 3.2(1)): when a worker thread terminates, its private state (a hybrid
// aggregation's private hash table, a top-N heap) is parked instead of
// destroyed, and any later worker of the operator reuses it. Safe for
// concurrent use; the zero value is an empty pool.
type contextPool[T any] struct {
	mu   sync.Mutex
	free []T
}

// get takes a parked context, or returns the zero T if none is parked
// and the caller must initialise a fresh one.
func (p *contextPool[T]) get() (v T) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		v = p.free[n-1]
		p.free = p.free[:n-1]
	}
	return v
}

// put parks a context for reuse.
func (p *contextPool[T]) put(v T) {
	p.mu.Lock()
	p.free = append(p.free, v)
	p.mu.Unlock()
}

// drain removes and returns every parked context (used when the
// iterator finishes and residual private state must be merged).
func (p *contextPool[T]) drain() []T {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.free
	p.free = nil
	return out
}
