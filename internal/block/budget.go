package block

import (
	"fmt"
	"sync"
)

// Tracker accounts live bytes and records the peak. Beyond the flat
// per-query accounting that backs the paper's Table 4, trackers form a
// budget hierarchy — node budget → per-query budget → per-operator
// sub-accounts — in which every allocation propagates toward the root
// and the hard Reserve path fails with OverBudgetError at whichever
// level would exceed its limit.
//
// Two charging paths exist on purpose. Reserve is the hard path:
// admission and operators that can shed memory (spillable hash state)
// use it and react to refusal. Alloc is the soft path: allocations that
// cannot fail mid-flight (sort runs, transport buffers) record
// unconditionally, push Pressure above 1.0, and rely on the scheduler's
// watermark reaction — refuse expansions, shrink pools — to pull the
// node back under its budget.
//
// Locking: each tracker owns a mutex; operations hold the account's
// lock while calling into the parent, so lock order is strictly
// descendant → ancestor and the hierarchy (a tree) cannot deadlock.
// Holding the child lock across the parent call is what keeps the
// prepaid boundary consistent: a concurrent Free between the local
// update and the parent charge would otherwise corrupt the delta.
type Tracker struct {
	mu     sync.Mutex
	name   string
	parent *Tracker
	// limit is the hard byte ceiling for Reserve; 0 means unlimited.
	limit int64
	// prepaid is the admission reservation charged to the parent when
	// this account was created: the parent is billed max(cur, prepaid),
	// so usage below the reservation causes no parent traffic.
	prepaid int64
	cur     int64
	peak    int64
	dropped bool
}

// OverBudgetError reports a refused reservation and the account that
// refused it (which may be an ancestor of the one Reserve was called
// on).
type OverBudgetError struct {
	// Account is the name of the budget that refused.
	Account string
	// Limit, Used and Requested describe the refusal arithmetic.
	Limit, Used, Requested int64
}

// Error implements error.
func (e *OverBudgetError) Error() string {
	return fmt.Sprintf("memory budget %q: %d requested, %d/%d used",
		e.Account, e.Requested, e.Used, e.Limit)
}

// NewTracker returns a flat, unlimited tracker — the pre-hierarchy
// behaviour exchanges and standalone accounting still use.
func NewTracker() *Tracker { return &Tracker{} }

// NewBudget returns a root budget with a hard limit (0 = unlimited).
func NewBudget(name string, limit int64) *Tracker {
	return &Tracker{name: name, limit: limit}
}

// Name returns the account name.
func (t *Tracker) Name() string { return t.name }

// Limit returns the hard byte ceiling (0 = unlimited).
func (t *Tracker) Limit() int64 { return t.limit }

// Sub creates an unlimited child account whose usage propagates into t.
func (t *Tracker) Sub(name string) *Tracker {
	return &Tracker{name: name, parent: t}
}

// SubReserve creates a child account that pre-charges prepaid bytes to
// t (the admission reservation). The child's parent bill never drops below
// prepaid until Drop refunds it, so admitted queries keep their
// headroom even while idle. It fails with OverBudgetError when t (or an
// ancestor) cannot cover the reservation.
func (t *Tracker) SubReserve(name string, prepaid int64) (*Tracker, error) {
	if prepaid < 0 {
		prepaid = 0
	}
	if prepaid > 0 {
		if err := t.reserve(prepaid); err != nil {
			return nil, err
		}
	}
	return &Tracker{name: name, parent: t, prepaid: prepaid}, nil
}

// excess is the part of cur the parent is billed beyond the prepaid
// reservation. cur may be transiently negative under free/alloc races;
// the clamp keeps the parent bill at the reservation floor.
func excess(cur, prepaid int64) int64 {
	if cur <= prepaid {
		return 0
	}
	return cur - prepaid
}

// Reserve attempts to record an allocation of n bytes, failing with
// *OverBudgetError if this account or any ancestor would exceed its
// limit. On failure no account is modified. n <= 0 is a no-op.
func (t *Tracker) Reserve(n int64) error {
	if n <= 0 {
		return nil
	}
	return t.reserve(n)
}

func (t *Tracker) reserve(n int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dropped {
		return nil
	}
	nc := t.cur + n
	if t.limit > 0 && nc > t.limit {
		return &OverBudgetError{Account: t.name, Limit: t.limit, Used: t.cur, Requested: n}
	}
	if t.parent != nil {
		if d := excess(nc, t.prepaid) - excess(t.cur, t.prepaid); d > 0 {
			if err := t.parent.reserve(d); err != nil {
				return err
			}
		}
	}
	t.cur = nc
	if nc > t.peak {
		t.peak = nc
	}
	return nil
}

// Alloc records an allocation of n bytes unconditionally (the soft
// path: never fails, may push usage past the limit).
func (t *Tracker) Alloc(n int64) { t.add(n) }

// Free records a release of n bytes.
func (t *Tracker) Free(n int64) { t.add(-n) }

func (t *Tracker) add(n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dropped {
		return
	}
	nc := t.cur + n
	if t.parent != nil {
		if d := excess(nc, t.prepaid) - excess(t.cur, t.prepaid); d != 0 {
			t.parent.add(d)
		}
	}
	t.cur = nc
	if nc > t.peak {
		t.peak = nc
	}
}

// Drop closes the account: it refunds the parent everything this
// account is billed for — max(cur, prepaid) — and turns all further
// operations on it (and, transitively, charges from its children) into
// no-ops. Query teardown calls it on every exit path so leaked or
// late-freed operator state cannot pin node budget.
func (t *Tracker) Drop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dropped {
		return
	}
	t.dropped = true
	if t.parent != nil {
		if refund := t.prepaid + excess(t.cur, t.prepaid); refund > 0 {
			t.parent.add(-refund)
		}
	}
	t.cur = 0
}

// Current returns the live byte count.
func (t *Tracker) Current() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur
}

// Peak returns the high-water mark.
func (t *Tracker) Peak() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.peak
}

// Pressure returns usage as a fraction of the limit (0 when unlimited).
// The scheduler's memory watermark reads it each tick.
func (t *Tracker) Pressure() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.limit <= 0 {
		return 0
	}
	return float64(t.cur) / float64(t.limit)
}
