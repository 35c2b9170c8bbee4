package iterator

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/expr"
	"repro/internal/types"
)

// AggFunc enumerates aggregate functions.
type AggFunc uint8

// Aggregate functions.
const (
	Sum AggFunc = iota
	Count
	Avg
	Min
	Max
)

var aggFuncNames = [...]string{"sum", "count", "avg", "min", "max"}

// String renders the function name; out-of-range values render as
// "AggFunc(n)" instead of panicking.
func (f AggFunc) String() string {
	if int(f) >= len(aggFuncNames) {
		return fmt.Sprintf("AggFunc(%d)", int(f))
	}
	return aggFuncNames[f]
}

// AggSpec describes one aggregate in the SELECT list. A nil Arg means
// COUNT(*).
type AggSpec struct {
	Func AggFunc
	Arg  expr.Expr
	Name string
}

// ResultKind reports the output column kind of the aggregate given the
// input schema.
func (a AggSpec) ResultKind(sch *types.Schema) types.Kind {
	switch a.Func {
	case Count:
		return types.Int64
	case Avg:
		return types.Float64
	case Sum:
		if a.Arg.Kind(sch) == types.Int64 {
			return types.Int64
		}
		return types.Float64
	default: // Min, Max
		return a.Arg.Kind(sch)
	}
}

// AggAlgorithm selects the hash-aggregation strategy the paper evaluates
// in Figure 8(b) and Appendix Algorithm 7.
type AggAlgorithm uint8

const (
	// SharedAgg lets every worker update one global hash table directly;
	// efficient for large group-by cardinality, contended for small.
	SharedAgg AggAlgorithm = iota
	// IndependentAgg gives each worker an unbounded private table merged
	// into the global table at the end of input.
	IndependentAgg
	// HybridAgg gives each worker a bounded private table that absorbs
	// hot groups; on overflow, entries flush straight to the global
	// table. Private tables are parked in a core-mode context pool on
	// shrink and reused on expand (Section 3.2(1)).
	HybridAgg
)

// aggCell accumulates one aggregate for one group.
type aggCell struct {
	sumF float64
	sumI int64
	cnt  int64
	min  types.Value
	max  types.Value
	init bool
}

func (c *aggCell) update(f AggFunc, v types.Value) {
	switch f {
	case Count:
		if !v.Null {
			c.cnt++
		}
	case Sum, Avg:
		if v.Null {
			return
		}
		c.cnt++
		if v.Kind == types.Int64 {
			c.sumI += v.I
		}
		c.sumF += v.AsFloat()
	case Min:
		if v.Null {
			return
		}
		if !c.init || v.Compare(c.min) < 0 {
			c.min = copyVal(v)
		}
	case Max:
		if v.Null {
			return
		}
		if !c.init || v.Compare(c.max) > 0 {
			c.max = copyVal(v)
		}
	}
	c.init = true
}

func (c *aggCell) merge(f AggFunc, o *aggCell) {
	if !o.init {
		return
	}
	switch f {
	case Count, Sum, Avg:
		c.cnt += o.cnt
		c.sumI += o.sumI
		c.sumF += o.sumF
	case Min:
		if !c.init || o.min.Compare(c.min) < 0 {
			c.min = o.min
		}
	case Max:
		if !c.init || o.max.Compare(c.max) > 0 {
			c.max = o.max
		}
	}
	c.init = true
}

func (c *aggCell) result(f AggFunc, kind types.Kind) types.Value {
	switch f {
	case Count:
		return types.IntVal(c.cnt)
	case Sum:
		if !c.init || c.cnt == 0 {
			return types.NullVal(kind)
		}
		if kind == types.Int64 {
			return types.IntVal(c.sumI)
		}
		return types.FloatVal(c.sumF)
	case Avg:
		if c.cnt == 0 {
			return types.NullVal(types.Float64)
		}
		return types.FloatVal(c.sumF / float64(c.cnt))
	case Min:
		if !c.init {
			return types.NullVal(kind)
		}
		return c.min
	default:
		if !c.init {
			return types.NullVal(kind)
		}
		return c.max
	}
}

// copyVal detaches a string value from its backing block so it survives
// beyond the row's lifetime.
func copyVal(v types.Value) types.Value {
	if v.Kind == types.String {
		v.S = string(append([]byte(nil), v.S...))
	}
	return v
}

// group holds the key values and aggregate cells of one group.
type group struct {
	keyVals []types.Value
	cells   []aggCell
}

type aggShard struct {
	mu     sync.Mutex
	groups map[string]*group
	// charged counts groups billed to the budget account (the scalar
	// pre-seed group is not), so emission refunds exactly what was paid.
	charged int64
	// spillMode diverts rows that would create new groups into spill
	// (raw input rows — partial aggregate cells don't round-trip the
	// fixed-stride block encoding, input rows do). Existing groups keep
	// absorbing matching rows in place, so hot groups stay cheap.
	spillMode bool
	spill     *spillFile
}

const aggShards = 64

// maxPrivateGroups bounds hybrid aggregation's private tables.
const maxPrivateGroups = 4096

// privTable is the per-worker context of hybrid aggregation.
type privTable struct {
	groups map[string]*group
}

// HashAgg is the hash aggregation iterator (Appendix Algorithm 7):
// Open consumes the entire child dataflow, updating the hash table(s)
// under the configured algorithm; Next emits result blocks from the
// global table behind an atomic shard cursor.
type HashAgg struct {
	child  Iterator
	inSch  *types.Schema
	outSch *types.Schema
	keys   []expr.Expr
	specs  []AggSpec
	algo   AggAlgorithm

	// RowExec forces row-at-a-time key and argument computation (set
	// before Open). The default computes group keys block-at-a-time via
	// a BatchKeyEncoder and evaluates fused aggregate arguments
	// column-at-a-time; both paths produce identical keys, hashes and
	// argument values, so aggregation state is bit-equal either way.
	RowExec bool

	// argKerns[j] is the fused batch kernel for specs[j].Arg, nil when
	// the argument is COUNT(*) or falls outside the fused shapes (those
	// stay row-evaluated even on the batch path).
	argKerns []expr.BatchExpr
	// vectorized: the keys and every aggregate argument avoid the row
	// fallback; see Vectorized.
	vectorized bool

	// Mem wires the aggregation into memory governance (set by the
	// engine before Open; nil runs unbudgeted and never spills).
	Mem *MemConfig
	// groupBytes is the per-group charge: group struct + key values +
	// cells + map entry, a deliberate round estimate.
	groupBytes int64

	shards    []aggShard
	mask      uint64
	done      *Barrier
	flushed   *Barrier
	drainOnce once
	pool      *ContextPool
	emitCur   atomic.Int64
	rowsIn    atomic.Int64
	memGroups atomic.Int64
	lastVR    atomicFloat

	errMu    sync.Mutex
	spillErr error
}

// NewHashAgg builds a hash aggregation. The output schema is the group
// key columns followed by one column per aggregate.
func NewHashAgg(child Iterator, inSch *types.Schema, keys []expr.Expr,
	keyNames []string, specs []AggSpec, algo AggAlgorithm) *HashAgg {
	cols := make([]types.Column, 0, len(keys)+len(specs))
	for i, k := range keys {
		kind := k.Kind(inSch)
		w := 8
		if kind == types.String {
			// Width of the source column when the key is a plain column
			// reference; otherwise a generous default.
			w = 32
			if c, ok := k.(*expr.Col); ok {
				w = inSch.Cols[c.Idx].Width
			}
		}
		cols = append(cols, types.Column{Name: keyNames[i], Kind: kind, Width: w})
	}
	for _, s := range specs {
		cols = append(cols, types.Col(s.Name, s.ResultKind(inSch)))
	}
	ha := &HashAgg{
		child: child, inSch: inSch,
		outSch: types.NewSchema(cols...),
		keys:   keys, specs: specs, algo: algo,
		shards:  make([]aggShard, aggShards),
		mask:    aggShards - 1,
		done:    NewBarrier(),
		flushed: NewBarrier(),
		pool:    NewContextPool(CoreMode),
	}
	ha.groupBytes = int64(112 + 56*len(specs) + 32*len(keys))
	ha.argKerns = make([]expr.BatchExpr, len(specs))
	ha.vectorized = expr.NewBatchKeyEncoder(keys, inSch).Vectorized()
	for j, s := range specs {
		if s.Arg == nil {
			continue
		}
		if k := expr.CompileBatch(s.Arg, inSch); k.Fused() {
			ha.argKerns[j] = k
		} else {
			ha.vectorized = false
		}
	}
	if len(keys) == 0 {
		// Scalar aggregation returns exactly one row even on empty
		// input (COUNT(*) of nothing is 0): pre-seed the single group.
		h := expr.Hash64(nil)
		sh := &ha.shards[h&ha.mask]
		sh.groups = map[string]*group{"": {cells: make([]aggCell, len(specs))}}
		ha.memGroups.Store(1)
	}
	return ha
}

// Serial reshapes the aggregation to a single shard. Shard fan-out
// only pays off under concurrent workers; a single-worker driver (the
// engine's serial fast path) saves the setup cost of 64 shard maps,
// which dominates a microsecond-scale query. Call before Open.
func (ha *HashAgg) Serial() {
	ha.shards = make([]aggShard, 1)
	ha.mask = 0
	// Private tables exist to cut shared-table contention; a single
	// worker has none, so the shared algorithm skips the private
	// table, its merge pass and the context-pool round trip.
	ha.algo = SharedAgg
	if len(ha.keys) == 0 {
		ha.shards[0].groups = map[string]*group{"": {cells: make([]aggCell, len(ha.specs))}}
		ha.memGroups.Store(1)
	}
}

// Schema returns the aggregation output schema.
func (ha *HashAgg) Schema() *types.Schema { return ha.outSch }

// Vectorized reports whether the group keys and every aggregate
// argument avoid the row-at-a-time fallback (plan display).
func (ha *HashAgg) Vectorized() bool { return ha.vectorized }

// Groups returns the current number of groups in the global table.
func (ha *HashAgg) Groups() int64 { return ha.memGroups.Load() }

// SpillError returns the first spill I/O error, if any; the engine
// fails the query on it (rows lost to a half-written spill file would
// silently under-aggregate).
func (ha *HashAgg) SpillError() error {
	ha.errMu.Lock()
	defer ha.errMu.Unlock()
	return ha.spillErr
}

func (ha *HashAgg) setSpillErr(err error) {
	ha.errMu.Lock()
	if ha.spillErr == nil {
		ha.spillErr = err
	}
	ha.errMu.Unlock()
	ha.Mem.spillFailed()
}

// Open runs the parallel aggregation phase.
func (ha *HashAgg) Open(ctx *Ctx) Status {
	ctx.RegisterBarrier(ha.done)
	ctx.RegisterBarrier(ha.flushed)
	if st := ha.child.Open(ctx); st == Terminated {
		ctx.BroadcastExit()
		return Terminated
	}

	var priv *privTable
	if ha.algo != SharedAgg {
		if v := ha.pool.Get(ctx); v != nil {
			priv = v.(*privTable)
		} else {
			priv = &privTable{groups: make(map[string]*group)}
		}
	}

	// Per-worker evaluation state: a key encoder plus, on the batch
	// path, one scratch vector per fused aggregate argument.
	var enc *expr.KeyEncoder
	var benc *expr.BatchKeyEncoder
	var argVecs []*expr.Vec
	if ha.RowExec {
		enc = expr.NewKeyEncoder(ha.keys)
	} else {
		benc = expr.NewBatchKeyEncoder(ha.keys, ha.inSch)
		argVecs = make([]*expr.Vec, len(ha.specs))
		for j, k := range ha.argKerns {
			if k != nil {
				argVecs[j] = new(expr.Vec)
			}
		}
	}
	argVals := make([]types.Value, len(ha.specs))
	for {
		b, st := ha.child.Next(ctx)
		if st == Terminated {
			// Park the private table for reuse by a future worker
			// before detaching (Algorithm 7 lines 9-13).
			if priv != nil {
				ha.pool.Put(ctx, priv)
			}
			ctx.BroadcastExit()
			return Terminated
		}
		if st == End {
			break
		}
		if b.VisitRate > 0 {
			ha.lastVR.Store(b.VisitRate)
		}
		n := b.NumTuples()
		if !ha.RowExec {
			// Column passes: one vectorized sweep per key column and per
			// fused aggregate argument, then a row loop over the results.
			benc.EncodeBlock(b, nil)
			for j, k := range ha.argKerns {
				if k != nil {
					k.EvalVec(b, nil, argVecs[j])
				}
			}
		}
		for i := 0; i < n; i++ {
			rec := b.Row(i)
			var key []byte
			var h uint64
			if ha.RowExec {
				key = enc.Encode(rec, ha.inSch)
				h = expr.Hash64(key)
			} else {
				key = benc.Key(i)
				h = benc.Hash(i)
			}
			for j := range ha.specs {
				if argVecs != nil && argVecs[j] != nil {
					argVals[j] = argVecs[j].Value(i)
				} else {
					argVals[j] = ha.evalArg(j, rec)
				}
			}
			switch ha.algo {
			case SharedAgg:
				ha.updateGlobal(key, h, rec, argVals)
			default:
				ha.updatePrivate(priv, key, h, rec, argVals)
			}
		}
		ha.rowsIn.Add(int64(n))
	}
	// Flush this worker's private table, then synchronize. Tables parked
	// by terminated workers are drained by exactly one worker *after*
	// the done barrier: only then is it certain no further worker will
	// park one (termination deregisters from the barrier after parking).
	if priv != nil {
		ha.flushPrivate(priv)
	}
	ha.done.Arrive()
	if ha.drainOnce.First() {
		for _, v := range ha.pool.Drain() {
			ha.flushPrivate(v.(*privTable))
		}
	}
	ha.flushed.Arrive()
	return OK
}

// updateGlobal folds one tuple into the global table. h must be
// Hash64(key); argument values are pre-evaluated so no expression work
// happens under the shard lock. A tuple that would create a group past
// the budget flips its shard into spill mode and is deferred to disk as
// a raw input row, re-aggregated when the shard is emitted.
func (ha *HashAgg) updateGlobal(key []byte, h uint64, rec []byte, argVals []types.Value) {
	sh := &ha.shards[h&ha.mask]
	sh.mu.Lock()
	g, ok := sh.groups[string(key)]
	if !ok {
		if sh.spillMode {
			err := sh.spill.add(rec)
			sh.mu.Unlock()
			if err != nil {
				ha.setSpillErr(err)
			}
			return
		}
		if ha.Mem.enabled() && !ha.Mem.reserveSmall(ha.groupBytes) {
			if ha.Mem.canSpill() && ha.enterSpill(sh) {
				err := sh.spill.add(rec)
				sh.mu.Unlock()
				if err != nil {
					ha.setSpillErr(err)
				}
				return
			}
			// Nowhere to spill: soft-charge and keep aggregating.
			ha.Mem.forceSmall(ha.groupBytes)
		}
		g = ha.newGroup(rec)
		if sh.groups == nil {
			sh.groups = make(map[string]*group)
		}
		sh.groups[string(key)] = g
		if ha.Mem.enabled() {
			sh.charged++
		}
		ha.memGroups.Add(1)
	}
	for j := range ha.specs {
		g.cells[j].update(ha.specs[j].Func, argVals[j])
	}
	sh.mu.Unlock()
}

// enterSpill switches a shard into spill mode (called under sh.mu).
func (ha *HashAgg) enterSpill(sh *aggShard) bool {
	sf, err := newSpillFile(ha.Mem.SpillDir, ha.inSch)
	if err != nil {
		ha.Mem.spillFailed()
		return false
	}
	sh.spill = sf
	sh.spillMode = true
	return true
}

func (ha *HashAgg) updatePrivate(priv *privTable, key []byte, h uint64, rec []byte, argVals []types.Value) {
	g, ok := priv.groups[string(key)]
	if !ok {
		if ha.algo == HybridAgg && len(priv.groups) >= maxPrivateGroups {
			// Private table full: route this tuple straight to the
			// global table (overflow flush).
			ha.updateGlobal(key, h, rec, argVals)
			return
		}
		if ha.Mem.enabled() && !ha.Mem.reserveSmall(ha.groupBytes) {
			// No budget for a private group; the global path can shed
			// state by spilling, so send the tuple there.
			ha.updateGlobal(key, h, rec, argVals)
			return
		}
		g = ha.newGroup(rec)
		priv.groups[string(key)] = g
	}
	for j := range ha.specs {
		g.cells[j].update(ha.specs[j].Func, argVals[j])
	}
}

func (ha *HashAgg) newGroup(rec []byte) *group {
	g := &group{
		keyVals: make([]types.Value, len(ha.keys)),
		cells:   make([]aggCell, len(ha.specs)),
	}
	for i, k := range ha.keys {
		g.keyVals[i] = copyVal(k.Eval(rec, ha.inSch))
	}
	return g
}

func (ha *HashAgg) evalArg(j int, rec []byte) types.Value {
	if ha.specs[j].Arg == nil {
		return types.IntVal(1) // COUNT(*)
	}
	return ha.specs[j].Arg.Eval(rec, ha.inSch)
}

// flushPrivate merges a private table into the global shards. Each
// private group carries a groupBytes charge from its creation: a group
// inserted into the global table keeps it (ownership transfers), one
// merged into an existing group refunds it. Private groups flushed into
// a spill-mode shard insert resident rather than spilling — a partial
// aggregate cannot be replayed as input rows — a bounded, soft
// overshoot (private tables are capped).
func (ha *HashAgg) flushPrivate(priv *privTable) {
	for key, g := range priv.groups {
		h := expr.Hash64([]byte(key))
		sh := &ha.shards[h&ha.mask]
		sh.mu.Lock()
		dst, ok := sh.groups[key]
		if !ok {
			if sh.groups == nil {
				sh.groups = make(map[string]*group)
			}
			sh.groups[key] = g
			if ha.Mem.enabled() {
				sh.charged++
			}
			ha.memGroups.Add(1)
		} else {
			for j := range ha.specs {
				dst.cells[j].merge(ha.specs[j].Func, &g.cells[j])
			}
			ha.Mem.freeSmall(ha.groupBytes)
		}
		sh.mu.Unlock()
	}
	priv.groups = make(map[string]*group)
}

// Next emits one shard's groups per call, claimed via an atomic cursor
// so concurrent workers never emit the same group twice. A spilled
// shard first reabsorbs its deferred rows — budget freed by the shards
// already emitted makes room — then emits like any other. Emitted
// shards drop their groups and refund their budget immediately, so the
// operator's footprint falls as results stream out.
func (ha *HashAgg) Next(ctx *Ctx) (*block.Block, Status) {
	for {
		if ctx.Term.Requested() {
			ctx.BroadcastExit()
			return nil, Terminated
		}
		idx := ha.emitCur.Add(1) - 1
		if idx >= int64(len(ha.shards)) {
			return nil, End
		}
		sh := &ha.shards[idx]
		if sh.spillMode {
			if err := ha.reabsorb(sh, int(idx)); err != nil {
				ha.setSpillErr(err)
			}
		}
		if len(sh.groups) == 0 {
			continue
		}
		out := block.New(ha.outSch, len(sh.groups)*ha.outSch.Stride(), ctx.Tracker)
		// Propagate the visit rate with this operator's group-reduction
		// selectivity (Section 4.3): δ_agg = groups / input tuples.
		if in := ha.rowsIn.Load(); in > 0 {
			vr := ha.lastVR.Load()
			if vr <= 0 {
				vr = 1
			}
			out.VisitRate = vr * float64(ha.memGroups.Load()) / float64(in)
		}
		nk := len(ha.keys)
		for _, g := range sh.groups {
			dst := out.AppendRowTo()
			for i, v := range g.keyVals {
				types.PutValue(dst, ha.outSch, i, v)
			}
			for j := range ha.specs {
				kind := ha.outSch.Cols[nk+j].Kind
				types.PutValue(dst, ha.outSch, nk+j,
					g.cells[j].result(ha.specs[j].Func, kind))
			}
		}
		sh.groups = nil
		ha.Mem.freeSmall(sh.charged * ha.groupBytes)
		sh.charged = 0
		return out, OK
	}
}

// reabsorb replays a spilled shard's deferred input rows into its
// table. The claiming worker owns the shard (the flushed barrier has
// passed), so no locking is needed; groups created here are charged
// through the budget, falling back to the soft path — one shard
// reabsorbs at a time and earlier emitted shards have already refunded
// their charge.
func (ha *HashAgg) reabsorb(sh *aggShard, idx int) error {
	sf := sh.spill
	sh.spill = nil
	sh.spillMode = false
	if sf == nil {
		return nil
	}
	defer sf.drop()
	reabsorbStart := time.Now()
	enc := expr.NewKeyEncoder(ha.keys)
	argVals := make([]types.Value, len(ha.specs))
	err := sf.iterate(func(rec []byte) error {
		key := enc.Encode(rec, ha.inSch)
		for j := range ha.specs {
			argVals[j] = ha.evalArg(j, rec)
		}
		g, ok := sh.groups[string(key)]
		if !ok {
			if !ha.Mem.reserveSmall(ha.groupBytes) {
				ha.Mem.forceSmall(ha.groupBytes)
			}
			sh.charged++
			g = ha.newGroup(rec)
			if sh.groups == nil {
				sh.groups = make(map[string]*group)
			}
			sh.groups[string(key)] = g
			ha.memGroups.Add(1)
		}
		for j := range ha.specs {
			g.cells[j].update(ha.specs[j].Func, argVals[j])
		}
		return nil
	})
	ha.Mem.spilled(idx, sf.bytes, sf.rows, "input", time.Since(reabsorbStart))
	return err
}

// Close implements Iterator. The elastic layer guarantees every worker
// has exited before Close runs, so freeing shared state here is safe.
// Draining the context pool releases per-worker states parked by
// shrunk or terminated workers — without it a long-lived serving node
// pins dead private hash tables until the GC finds the whole operator.
func (ha *HashAgg) Close() {
	ha.child.Close()
	for _, v := range ha.pool.Drain() {
		pt := v.(*privTable)
		if ha.Mem.enabled() {
			ha.Mem.freeSmall(int64(len(pt.groups)) * ha.groupBytes)
		}
		pt.groups = nil
	}
	var charged int64
	for i := range ha.shards {
		sh := &ha.shards[i]
		charged += sh.charged
		sh.charged = 0
		sh.groups = nil
		sh.spill.drop()
		sh.spill = nil
	}
	ha.Mem.freeSmall(charged * ha.groupBytes)
	ha.Mem.releaseAll()
}
