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

// Column is the aggregate's output column given the input schema. A
// string extreme is as wide as its argument's values (expr.StringWidth).
func (a AggSpec) Column(sch *types.Schema) types.Column {
	switch a.Func {
	case Count:
		return types.Col(a.Name, types.Int64)
	case Avg:
		return types.Col(a.Name, types.Float64)
	case Sum:
		if a.Arg.Kind(sch) == types.Int64 {
			return types.Col(a.Name, types.Int64)
		}
		return types.Col(a.Name, types.Float64)
	}
	if k := a.Arg.Kind(sch); k != types.String { // Min, Max
		return types.Col(a.Name, k)
	}
	return types.Char(a.Name, expr.StringWidth(a.Arg, sch))
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

var aggAlgorithmNames = [...]string{"shared", "independent", "hybrid"}

// String names the algorithm as EXPLAIN shows it.
func (a AggAlgorithm) String() string {
	if int(a) >= len(aggAlgorithmNames) {
		return fmt.Sprintf("AggAlgorithm(%d)", int(a))
	}
	return aggAlgorithmNames[a]
}

// accMode is how one aggregate accumulates: which accumulator columns
// it keeps and what it reads its argument from. It is fixed when the
// operator is built, so an update kernel switches on it once per block,
// outside its row loop.
type accMode uint8

const (
	// accCount keeps no column of its own unless its argument can be
	// NULL: COUNT(*) and COUNT(col) read the table's row count, COUNT(x)
	// counts the non-NULL entries of x in cnt.
	accCount accMode = iota
	// accSumInt keeps sumI: SUM of an Int64 column or vector.
	accSumInt
	// accSumFloat keeps sumF: SUM of a Float64 or Date column or vector
	// and AVG of any numeric one, accumulated as float64.
	accSumFloat
	// accBoxed keeps sumI and sumF and folds boxed Values: SUM and AVG
	// of an argument that has no kind-faithful numeric vector. Only the
	// Value says which kind a row evaluated to, and the sums follow it
	// row by row.
	accBoxed
	// accExtreme keeps ext: MIN and MAX, ordered by Value.Compare.
	accExtreme
)

// aggPlan is the static half of one aggregate: what NewHashAgg works
// out from the AggSpec and the input schema.
type aggPlan struct {
	fn   AggFunc
	mode accMode
	arg  expr.Expr // nil for COUNT(*) and COUNT(col)
	kind types.Kind
	// off is the argument's record offset when the aggregate is a SUM or
	// AVG of an Int64, Float64 or Date column, which the update loop
	// reads in place; -1 otherwise.
	off int
	// kern is arg's fused batch kernel. It is nil without an argument,
	// for a column read in place, and for an argument outside the fused
	// shapes, whose runtime kind a vector would coerce to the static one:
	// those rows are Eval'd into boxed Values instead.
	kern expr.BatchExpr
	// own: the aggregate keeps its own count, of the rows whose argument
	// was not NULL. Only an argument that is not a record column can be
	// NULL; MIN and MAX of a column keep one too, to tell their first
	// value. Every other aggregate reads the table's row count.
	own bool
}

func planAgg(s AggSpec, inSch *types.Schema) aggPlan {
	p := aggPlan{fn: s.Func, arg: s.Arg, off: -1}
	col, isCol := s.Arg.(*expr.Col)
	if isCol && s.Func == Count {
		p.arg = nil // a record column is never NULL: COUNT(col) counts rows
	}
	if p.arg != nil {
		p.kind = p.arg.Kind(inSch)
		if isCol && (s.Func == Sum || s.Func == Avg) && p.kind != types.String {
			p.off = inSch.Offset(col.Idx)
		} else if k := expr.CompileBatch(p.arg, inSch); k.Fused() {
			p.kern = k
		}
	}
	p.own = p.arg != nil && p.off < 0
	switch {
	case s.Func == Count:
		p.mode = accCount
	case s.Func == Min || s.Func == Max:
		p.mode = accExtreme
	case p.off < 0 && (p.kern == nil || p.kind == types.String):
		p.mode = accBoxed
	case s.Func == Sum && p.kind == types.Int64:
		p.mode = accSumInt
	default:
		p.mode = accSumFloat
	}
	return p
}

// value boxes the aggregate's argument for row i of b: from the vector
// when the argument has a kernel, by Eval otherwise.
func (p *aggPlan) value(b *block.Block, sch *types.Schema, v *expr.Vec, i int32) types.Value {
	if v != nil {
		return v.Value(int(i))
	}
	return p.arg.Eval(b.Row(int(i)), sch)
}

// aggArgs runs the aggregate arguments that have a kernel, once per
// block, for a hash aggregation's worker or an aggregating join's.
type aggArgs struct {
	kerns []expr.BatchExpr // per aggregate, nil where there is none to run
	vecs  []*expr.Vec      // per aggregate, its argument over the current block; nil without a kernel
}

func newAggArgs(plans []aggPlan) aggArgs {
	a := aggArgs{kerns: make([]expr.BatchExpr, len(plans)), vecs: make([]*expr.Vec, len(plans))}
	for j := range plans {
		if k := plans[j].kern; k != nil {
			a.kerns[j], a.vecs[j] = k, new(expr.Vec)
		}
	}
	return a
}

// eval evaluates every kernel over all of b's rows.
func (a *aggArgs) eval(b *block.Block) {
	for j, k := range a.kerns {
		if k != nil {
			k.EvalVec(b, nil, a.vecs[j])
		}
	}
}

// aggAcc is one aggregate's accumulator columns, indexed by group id.
// Its plan decides which of them exist.
type aggAcc struct {
	cnt  []int64       // non-NULL inputs folded in, when the plan is own
	sumI []int64       // sum of the Int64 inputs
	sumF []float64     // sum of all inputs as float64
	ext  []types.Value // the extreme so far, valid where cnt > 0
}

// grow adds zeroed accumulators for n more groups. The columns are
// reallocated when full to hold room groups — an aggregation passes its
// table's bucket count, so they double when the table does.
func (a *aggAcc) grow(p *aggPlan, n, room int) {
	if p.own {
		a.cnt = extend(a.cnt, n, room)
	}
	switch p.mode {
	case accSumInt:
		a.sumI = extend(a.sumI, n, room)
	case accSumFloat:
		a.sumF = extend(a.sumF, n, room)
	case accBoxed:
		a.sumI = extend(a.sumI, n, room)
		a.sumF = extend(a.sumF, n, room)
	case accExtreme:
		a.ext = extend(a.ext, n, room)
	}
}

// extend lengthens s by n zero elements, moving it to an array of room
// elements when it is full. Nothing ever shortens s, so the elements
// past its length are still the zeros make left there.
func extend[T any](s []T, n, room int) []T {
	if len(s)+n > cap(s) {
		s = append(make([]T, 0, room), s...)
	}
	return s[:len(s)+n]
}

// update folds rows of b into the accumulators of their groups: row
// rows[j] belongs to group gids[j]. v is the argument's vector over the
// whole block, nil when the plan has no kernel.
func (a *aggAcc) update(p *aggPlan, b *block.Block, sch *types.Schema, v *expr.Vec, rows, gids []int32) {
	cnt := a.cnt
	switch {
	case p.arg == nil: // the table's row count is the answer
	case p.off >= 0:
		a.updateColumn(p, b.Bytes(), sch.Stride(), rows, gids)
	case p.mode == accCount && v != nil:
		for j, g := range gids {
			if !v.Null[rows[j]] {
				cnt[g]++
			}
		}
	case p.mode == accSumInt:
		sum, in := a.sumI, v.I
		for j, g := range gids {
			if i := rows[j]; !v.Null[i] {
				cnt[g]++
				sum[g] += in[i]
			}
		}
	case p.mode == accSumFloat && v.Kind == types.Float64:
		sum, in := a.sumF, v.F
		for j, g := range gids {
			if i := rows[j]; !v.Null[i] {
				cnt[g]++
				sum[g] += in[i]
			}
		}
	case p.mode == accSumFloat:
		sum, in := a.sumF, v.I
		for j, g := range gids {
			if i := rows[j]; !v.Null[i] {
				cnt[g]++
				sum[g] += float64(in[i])
			}
		}
	default: // boxed Values: accBoxed, accExtreme, COUNT of an unfused argument
		for j, g := range gids {
			if x := p.value(b, sch, v, rows[j]); !x.Null {
				a.fold(p, g, x)
			}
		}
	}
}

// updateColumn is update for a SUM or AVG of a column: it reads row
// rows[j]'s value at p.off in the block's payload in, whose records are
// st bytes apart. A record column is never NULL, so there is no count
// to keep.
func (a *aggAcc) updateColumn(p *aggPlan, in []byte, st int, rows, gids []int32) {
	off := p.off
	switch {
	case p.mode == accSumInt:
		sum := a.sumI
		for j, g := range gids {
			sum[g] += types.GetInt(in, int(rows[j])*st+off)
		}
	case p.kind == types.Float64:
		sum := a.sumF
		for j, g := range gids {
			sum[g] += types.GetFloat(in, int(rows[j])*st+off)
		}
	default: // an Int64 or Date column into a float sum
		sum := a.sumF
		for j, g := range gids {
			sum[g] += float64(types.GetInt(in, int(rows[j])*st+off))
		}
	}
}

// fold adds one non-NULL boxed value to group g.
func (a *aggAcc) fold(p *aggPlan, g int32, x types.Value) {
	switch p.mode {
	case accBoxed:
		if x.Kind == types.Int64 {
			a.sumI[g] += x.I
		}
		a.sumF[g] += x.AsFloat()
	case accExtreme:
		if a.cnt[g] == 0 || p.beats(x, a.ext[g]) {
			a.ext[g] = copyVal(x)
		}
	}
	a.cnt[g]++
}

// beats reports whether x replaces the extreme cur.
func (p *aggPlan) beats(x, cur types.Value) bool {
	if p.fn == Min {
		return x.Compare(cur) < 0
	}
	return x.Compare(cur) > 0
}

// merge folds group gs of src, another table's accumulators for the
// same aggregate, into group g. The tables merge their row counts.
func (a *aggAcc) merge(p *aggPlan, g int32, src *aggAcc, gs int32) {
	if p.own && src.cnt[gs] == 0 {
		return
	}
	switch p.mode {
	case accSumInt:
		a.sumI[g] += src.sumI[gs]
	case accSumFloat:
		a.sumF[g] += src.sumF[gs]
	case accBoxed:
		a.sumI[g] += src.sumI[gs]
		a.sumF[g] += src.sumF[gs]
	case accExtreme:
		if a.cnt[g] == 0 || p.beats(src.ext[gs], a.ext[g]) {
			a.ext[g] = src.ext[gs]
		}
	}
	if p.own {
		a.cnt[g] += src.cnt[gs]
	}
}

// emit writes the aggregate's result into column col of the n rows at
// buf (laid out per sch): row r gets group gids[r], or group r when gids
// is nil. cnt is the count it reads (counts). A NULL result stores the
// zero value, as PutValue does: records carry no null bitmap.
func (a *aggAcc) emit(p *aggPlan, sch *types.Schema, col int, buf []byte, n int, gids []int32, cnt []int64) {
	st, off, kind := sch.Stride(), sch.Offset(col), sch.Cols[col].Kind
	g := func(r int) int {
		if gids == nil {
			return r
		}
		return int(gids[r])
	}
	switch {
	case p.fn == Count:
		for r := 0; r < n; r++ {
			types.PutInt(buf[r*st:], off, cnt[g(r)])
		}
	case p.fn == Sum && kind == types.Int64:
		for r := 0; r < n; r++ {
			types.PutInt(buf[r*st:], off, a.sumI[g(r)])
		}
	case p.fn == Sum:
		for r := 0; r < n; r++ {
			types.PutFloat(buf[r*st:], off, a.sumF[g(r)])
		}
	case p.fn == Avg:
		for r := 0; r < n; r++ {
			var avg float64
			if c := cnt[g(r)]; c > 0 {
				avg = a.sumF[g(r)] / float64(c)
			}
			types.PutFloat(buf[r*st:], off, avg)
		}
	default: // Min, Max
		for r := 0; r < n; r++ {
			x := types.NullVal(kind)
			if a.cnt[g(r)] > 0 {
				x = a.ext[g(r)]
			}
			types.PutValue(buf[r*st:], sch, col, x)
		}
	}
}

// counts returns the count column aggregate p reads: its own accumulator's
// when it keeps one, the rows folded into each group (shared) otherwise.
func counts(p *aggPlan, a *aggAcc, shared []int64) []int64 {
	if p.own {
		return a.cnt
	}
	return shared
}

// copyVal detaches a string value from its backing block so it survives
// beyond the row's lifetime.
func copyVal(v types.Value) types.Value {
	if v.Kind == types.String {
		v.S = string(append([]byte(nil), v.S...))
	}
	return v
}

// aggTable is one hash table of groups — a shard of the global table or
// a worker's private table. Group ids are dense insertion numbers: tab
// maps a key to its id, and everything else is an array indexed by it.
// The arrays are created by the first group and grow by doubling, so an
// empty table costs nothing.
type aggTable struct {
	tab     joinTable
	keyRows []byte   // per group, its key columns laid out as the output row's prefix
	cnt     []int64  // per group, the input rows folded into it
	accs    []aggAcc // per aggregate
}

func (t *aggTable) groups() int { return len(t.tab.rows) }

// add appends a group for key (hash h) with zeroed accumulators and
// returns its id and its key row, which the caller fills. A word key
// has no key bytes: its hash is the key.
func (t *aggTable) add(ha *HashAgg, h uint64, key []byte) (int32, []byte) {
	g := t.groups()
	t.tab.insert(h, key)
	room := len(t.tab.buckets)
	t.keyRows = extend(t.keyRows, ha.keyStride, room*ha.keyStride)
	t.cnt = extend(t.cnt, 1, room)
	if t.accs == nil {
		t.accs = make([]aggAcc, len(ha.plans))
	}
	for j := range t.accs {
		t.accs[j].grow(&ha.plans[j], 1, room)
	}
	return int32(g), t.keyRows[g*ha.keyStride:]
}

// lookup returns the group of the key with hash h, or -1.
func (t *aggTable) lookup(ha *HashAgg, h uint64, key []byte) int32 {
	if ha.wordKey {
		return t.tab.lookupWord(h)
	}
	return t.tab.lookup(h, key)
}

// resolve finds the group of every row in sel (row indexes into b,
// whose keys w.keys last encoded), adding a group for a key the table
// does not hold when admit allows one more. The rows that now have a
// group and their ids are left in w.rows and w.gids; the rows refused
// one are appended to rest.
func (t *aggTable) resolve(ha *HashAgg, w *aggWorker, b *block.Block, sel, rest []int32, admit func() bool) []int32 {
	rows, gids := w.rows[:0], w.gids[:0]
	for _, i := range sel {
		h := w.keys.Hash(int(i))
		var key []byte
		if !ha.wordKey {
			key = w.keys.Key(int(i))
		}
		g := t.lookup(ha, h, key)
		if g < 0 {
			if !admit() {
				rest = append(rest, i)
				continue
			}
			var keyRow []byte
			g, keyRow = t.add(ha, h, key)
			rec := b.Row(int(i))
			for c, k := range ha.keys {
				types.PutValue(keyRow, ha.outSch, c, k.Eval(rec, ha.inSch))
			}
		}
		rows = append(rows, i)
		gids = append(gids, g)
	}
	w.rows, w.gids = rows, gids
	return rest
}

// update counts the rows resolve placed into their groups, then runs
// one loop per aggregate over them.
func (t *aggTable) update(ha *HashAgg, w *aggWorker, b *block.Block) {
	if len(w.rows) == 0 {
		return
	}
	cnt := t.cnt
	for _, g := range w.gids {
		cnt[g]++
	}
	for j := range ha.plans {
		t.accs[j].update(&ha.plans[j], b, ha.inSch, w.vecs[j], w.rows, w.gids)
	}
}

// emit appends one output row per group to out.
func (t *aggTable) emit(ha *HashAgg, out *block.Block) {
	n, base := t.groups(), out.NumTuples()
	out.EnsureRoom(n)
	out.SetLen(base + n)
	st, ks := ha.outSch.Stride(), ha.keyStride
	buf := out.Bytes()[base*st:]
	for g := 0; g < n; g++ {
		copy(buf[g*st:g*st+ks], t.keyRows[g*ks:])
	}
	for j := range ha.plans {
		p := &ha.plans[j]
		t.accs[j].emit(p, ha.outSch, len(ha.keys)+j, buf, n, nil, counts(p, &t.accs[j], t.cnt))
	}
}

type aggShard struct {
	mu sync.Mutex
	aggTable
	// charged counts groups billed to the budget account (the scalar
	// pre-seed group is not), so emission refunds exactly what was paid.
	charged int64
	// spillMode diverts rows that would create new groups into spill
	// (raw input rows — partial aggregates don't round-trip the
	// fixed-stride block encoding, input rows do). Existing groups keep
	// absorbing matching rows in place, so hot groups stay cheap.
	spillMode bool
	spill     *spillFile
}

const aggShards = 1 << shardBits

// MaxPrivateGroups bounds hybrid aggregation's private tables. It is
// also the planner's line between the algorithms: an aggregation
// estimated to have at most this many groups gets HybridAgg, whose
// private tables then hold every group a worker meets.
const MaxPrivateGroups = 4096

// aggWorker is one worker's consume-phase scratch, reused block after
// block. The private table is not part of it: that is parked in the
// context pool when the worker leaves, this is dropped.
type aggWorker struct {
	keys *expr.BatchKeyEncoder
	aggArgs
	byShard scatter
	all     []int32 // 0, 1, 2, …: the selection naming every row of a block
	rows    []int32 // resolve's output: the rows it placed
	gids    []int32 // and their group ids
	over    []int32 // rows the private table handed on
	spilt   []int32 // rows a shard refused a group
}

// HashAgg is the hash aggregation iterator (Appendix Algorithm 7):
// Open consumes the entire child dataflow, updating the hash table(s)
// under the configured algorithm; Next emits result blocks from the
// global table behind an atomic shard cursor.
//
// Open works a block at a time. A worker encodes the block's keys and
// evaluates every computed aggregate argument once, resolves each row
// to a dense group id — first in its private table, then, for the rows
// that table handed on, shard by shard in the global one, each shard's
// lock taken once per block — counts the rows into their groups, and
// runs one loop per aggregate over the resolved ids into accumulator
// columns. A SUM or AVG of a column reads it in place in that loop.
type HashAgg struct {
	child  Iterator
	inSch  *types.Schema
	outSch *types.Schema
	keys   []expr.Expr
	algo   AggAlgorithm

	// Partial marks one node's share of a two-phase aggregation (set
	// before Open). Without keys and without input it emits no row: the
	// one row a scalar aggregate owes is the final aggregation's to
	// give, and a partial row of zeros would reach the final MIN and MAX
	// as a value.
	Partial bool

	plans []aggPlan
	// keyStride is the byte length of the key columns in an output row.
	keyStride int
	// vectorized: the keys and every aggregate argument avoid the row
	// fallback; see Vectorized.
	vectorized bool
	// wordKey: the group key packs into one word, whose hash is the key
	// (expr.NewGroupKeyEncoder). Tables then hold no key bytes and
	// compare hashes only.
	wordKey bool

	// Mem wires the aggregation into memory governance (set by the
	// engine before Open; nil runs unbudgeted and never spills).
	Mem *MemConfig
	// groupBytes is the per-group charge: table row + key bytes +
	// accumulators, a deliberate round estimate.
	groupBytes int64

	shards    []aggShard
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
			w = expr.StringWidth(k, inSch)
		}
		cols = append(cols, types.Column{Name: keyNames[i], Kind: kind, Width: w})
	}
	for _, s := range specs {
		cols = append(cols, s.Column(inSch))
	}
	ha := &HashAgg{
		child: child, inSch: inSch,
		outSch: types.NewSchema(cols...),
		keys:   keys, algo: algo,
		plans:   make([]aggPlan, len(specs)),
		shards:  make([]aggShard, aggShards),
		done:    NewBarrier(),
		flushed: NewBarrier(),
		pool:    NewContextPool(CoreMode),
	}
	ha.keyStride = ha.outSch.Stride()
	if len(specs) > 0 {
		ha.keyStride = ha.outSch.Offset(len(keys))
	}
	ha.groupBytes = int64(112 + 56*len(specs) + 32*len(keys))
	enc := expr.NewGroupKeyEncoder(keys, inSch)
	ha.vectorized, ha.wordKey = enc.Vectorized(), enc.Word()
	for j, s := range specs {
		ha.plans[j] = planAgg(s, inSch)
		if p := &ha.plans[j]; p.arg != nil && p.off < 0 && p.kern == nil {
			ha.vectorized = false
		}
	}
	ha.seedScalar()
	return ha
}

// seedScalar gives an aggregation without keys its one group up front:
// it returns exactly one row even on empty input (COUNT(*) of nothing
// is 0).
func (ha *HashAgg) seedScalar() {
	if len(ha.keys) == 0 {
		h := expr.Hash64(nil)
		ha.shard(h).add(ha, h, nil)
		ha.memGroups.Store(1)
	}
}

// Serial reshapes the aggregation to a single shard. Shard fan-out
// only pays off under concurrent workers; a single-worker driver (the
// engine's serial fast path) saves the setup cost of 64 shards, which
// dominates a microsecond-scale query. Call before Open.
func (ha *HashAgg) Serial() {
	ha.shards = make([]aggShard, 1)
	// Private tables exist to cut shared-table contention; a single
	// worker has none, so the shared algorithm skips the private
	// table, its merge pass and the context-pool round trip.
	ha.algo = SharedAgg
	ha.seedScalar()
}

// shard returns the global-table shard of a key with hash h.
func (ha *HashAgg) shard(h uint64) *aggShard { return &ha.shards[ha.shardIndex(h)] }

func (ha *HashAgg) shardIndex(h uint64) int {
	if len(ha.shards) == 1 {
		return 0
	}
	return shardOf(h)
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

// newWorker builds the scratch of one consumer of input blocks: an
// Open call, or the reabsorption of one spilled shard.
func (ha *HashAgg) newWorker() *aggWorker {
	return &aggWorker{
		keys:    expr.NewGroupKeyEncoder(ha.keys, ha.inSch),
		aggArgs: newAggArgs(ha.plans),
	}
}

// Open runs the parallel aggregation phase.
func (ha *HashAgg) Open(ctx *Ctx) Status {
	ctx.RegisterBarrier(ha.done)
	ctx.RegisterBarrier(ha.flushed)
	if st := ha.child.Open(ctx); st == Terminated {
		ctx.BroadcastExit()
		return Terminated
	}

	var priv *aggTable
	if ha.algo != SharedAgg {
		if v := ha.pool.Get(ctx); v != nil {
			priv = v.(*aggTable)
		} else {
			priv = new(aggTable)
		}
	}
	w := ha.newWorker()
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
		sel := w.encode(b)
		if priv != nil {
			sel = ha.absorbPrivate(w, priv, b, sel)
		}
		ha.absorbGlobal(w, b, sel, true)
		ha.rowsIn.Add(int64(b.NumTuples()))
		// Key rows, extremes and spilled rows are copies: nothing the
		// tables keep points into b.
		b.Recycle()
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
			ha.flushPrivate(v.(*aggTable))
		}
	}
	ha.flushed.Arrive()
	return OK
}

// encode makes the column passes over b — the keys of every row, then
// each aggregate argument that has a kernel — and returns the selection
// naming all of b's rows.
func (w *aggWorker) encode(b *block.Block) []int32 {
	n := w.keys.EncodeBlock(b, nil)
	w.eval(b)
	if n > cap(w.all) {
		// One backing array for the three vectors no block outgrows.
		buf := make([]int32, 3*n)
		w.all, w.rows, w.gids = buf[:n:n], buf[n:n:2*n], buf[2*n:2*n]
		for i := range w.all {
			w.all[i] = int32(i)
		}
	}
	return w.all[:n]
}

// absorbPrivate aggregates into the worker's private table the rows of
// sel whose group it holds or may add, and returns the others for the
// global table: those that would take a hybrid table past its cap, and
// those the budget refuses a group — the global table can shed state by
// spilling, a private one cannot.
func (ha *HashAgg) absorbPrivate(w *aggWorker, priv *aggTable, b *block.Block, sel []int32) []int32 {
	w.over = priv.resolve(ha, w, b, sel, w.over[:0], func() bool {
		return (ha.algo != HybridAgg || priv.groups() < MaxPrivateGroups) &&
			ha.Mem.reserveSmall(ha.groupBytes)
	})
	priv.update(ha, w, b)
	return w.over
}

// absorbGlobal aggregates the rows of sel into the global table: it
// scatters them by shard and visits each shard they touch once.
func (ha *HashAgg) absorbGlobal(w *aggWorker, b *block.Block, sel []int32, maySpill bool) {
	if len(sel) == 0 {
		return
	}
	if len(ha.shards) == 1 {
		ha.absorbShard(w, &ha.shards[0], b, sel, maySpill)
		return
	}
	for shi, s := range w.byShard.shards(w.keys, sel, b.NumTuples()) {
		if len(s) > 0 {
			ha.absorbShard(w, &ha.shards[shi], b, s, maySpill)
		}
	}
}

// absorbShard aggregates the rows of sel, all hashing to sh, under one
// acquisition of its lock, so no expression work and one lock round
// trip per block happen there. A row that would create a group past the
// budget flips the shard into spill mode (when maySpill) and is
// deferred to disk as a raw input row, re-aggregated when the shard is
// emitted.
func (ha *HashAgg) absorbShard(w *aggWorker, sh *aggShard, b *block.Block, sel []int32, maySpill bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	before := sh.groups()
	w.spilt = sh.resolve(ha, w, b, sel, w.spilt[:0], func() bool {
		if sh.spillMode {
			return false
		}
		if ha.Mem.enabled() {
			if !ha.Mem.reserveSmall(ha.groupBytes) {
				if maySpill && ha.Mem.canSpill() && ha.enterSpill(sh) {
					return false
				}
				// Nowhere to spill: soft-charge and keep aggregating.
				ha.Mem.forceSmall(ha.groupBytes)
			}
			sh.charged++
		}
		return true
	})
	sh.update(ha, w, b)
	ha.memGroups.Add(int64(sh.groups() - before))
	for _, i := range w.spilt {
		if err := sh.spill.add(b.Row(int(i))); err != nil {
			ha.setSpillErr(err)
			return
		}
	}
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

// flushPrivate merges a private table into the global shards. Each
// private group carries a groupBytes charge from its creation: a group
// inserted into the global table keeps it (ownership transfers), one
// merged into an existing group refunds it. Private groups flushed into
// a spill-mode shard insert resident rather than spilling — a partial
// aggregate cannot be replayed as input rows — a bounded, soft
// overshoot (private tables are capped). The groups are sorted by shard
// first, so each shard's lock is taken once per flush.
func (ha *HashAgg) flushPrivate(priv *aggTable) {
	n := priv.groups()
	// A counting sort of the group ids by shard: shard s's groups are
	// order[start[s]:start[s+1]].
	start := make([]int32, len(ha.shards)+1)
	for g := 0; g < n; g++ {
		start[ha.shardIndex(priv.tab.rows[g].hash)+1]++
	}
	for s := 1; s < len(start); s++ {
		start[s] += start[s-1]
	}
	order := make([]int32, n)
	next := append([]int32(nil), start[:len(ha.shards)]...)
	for g := 0; g < n; g++ {
		s := ha.shardIndex(priv.tab.rows[g].hash)
		order[next[s]] = int32(g)
		next[s]++
	}
	var merged int64
	for s := range ha.shards {
		if start[s] < start[s+1] {
			merged += ha.flushShard(&ha.shards[s], priv, order[start[s]:start[s+1]])
		}
	}
	ha.Mem.freeSmall(merged * ha.groupBytes)
	*priv = aggTable{}
}

// flushShard merges the private groups gs, all of shard sh, under one
// acquisition of its lock, and returns how many it merged into groups
// sh already held.
func (ha *HashAgg) flushShard(sh *aggShard, priv *aggTable, gs []int32) (merged int64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	added := 0
	for _, g := range gs {
		h, key := priv.tab.rows[g].hash, priv.tab.key(g)
		dst := sh.lookup(ha, h, key)
		if dst < 0 {
			var keyRow []byte
			dst, keyRow = sh.add(ha, h, key)
			copy(keyRow, priv.keyRows[int(g)*ha.keyStride:(int(g)+1)*ha.keyStride])
			if ha.Mem.enabled() {
				sh.charged++
			}
			added++
		} else {
			merged++
		}
		sh.cnt[dst] += priv.cnt[g]
		for j := range ha.plans {
			sh.accs[j].merge(&ha.plans[j], dst, &priv.accs[j], g)
		}
	}
	ha.memGroups.Add(int64(added))
	return merged
}

// Next emits the groups of the global table, shard by shard behind an
// atomic cursor so concurrent workers never emit the same group twice,
// and returns once the shards it claimed fill a block (or none are
// left): many small shards leave as few full blocks. A spilled shard
// first reabsorbs its deferred rows — budget freed by the shards
// already emitted makes room — then emits like any other. Emitted
// shards drop their groups and refund their budget immediately, so the
// operator's footprint falls as results stream out.
func (ha *HashAgg) Next(ctx *Ctx) (*block.Block, Status) {
	if ha.Partial && len(ha.keys) == 0 && ha.rowsIn.Load() == 0 {
		return nil, End
	}
	full := block.DefaultSize / ha.outSch.Stride()
	var out *block.Block
	for out == nil || out.NumTuples() < full {
		if ctx.Term.Requested() {
			if out != nil {
				break // deliver what this worker claimed; it detaches on the next call
			}
			ctx.BroadcastExit()
			return nil, Terminated
		}
		idx := ha.emitCur.Add(1) - 1
		if idx >= int64(len(ha.shards)) {
			break
		}
		sh := &ha.shards[idx]
		if sh.spillMode {
			if err := ha.reabsorb(sh, int(idx)); err != nil {
				ha.setSpillErr(err)
			}
		}
		if sh.groups() == 0 {
			continue
		}
		if out == nil {
			out = ha.newOutput(ctx, sh.groups(), full)
		}
		sh.emit(ha, out)
		sh.aggTable = aggTable{}
		ha.Mem.freeSmall(sh.charged * ha.groupBytes)
		sh.charged = 0
	}
	if out == nil {
		return nil, End
	}
	return out, OK
}

// newOutput allocates the block one Next call fills. It has room for
// every group there is, up to a full block and no less than the first
// shard's: the claimed shards then rarely grow it.
func (ha *HashAgg) newOutput(ctx *Ctx, first, full int) *block.Block {
	groups := ha.memGroups.Load()
	room := int(min(groups, int64(full)))
	out := block.New(ha.outSch, max(room, first)*ha.outSch.Stride(), ctx.Tracker)
	// Propagate the visit rate with this operator's group-reduction
	// selectivity (Section 4.3): δ_agg = groups / input tuples.
	if in := ha.rowsIn.Load(); in > 0 {
		vr := ha.lastVR.Load()
		if vr <= 0 {
			vr = 1
		}
		out.VisitRate = vr * float64(groups) / float64(in)
	}
	return out
}

// reabsorb replays a spilled shard's deferred input rows into its
// table, block by block through the same kernels Open uses. The
// claiming worker owns the shard (the flushed barrier has passed);
// groups created here are charged through the budget, falling back to
// the soft path rather than spilling again — one shard reabsorbs at a
// time and earlier emitted shards have already refunded their charge.
func (ha *HashAgg) reabsorb(sh *aggShard, idx int) error {
	sf := sh.spill
	sh.spill = nil
	sh.spillMode = false
	if sf == nil {
		return nil
	}
	defer sf.drop()
	reabsorbStart := time.Now()
	w := ha.newWorker()
	err := sf.iterateBlocks(func(b *block.Block) error {
		ha.absorbShard(w, sh, b, w.encode(b), false)
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
		pt := v.(*aggTable)
		ha.Mem.freeSmall(int64(pt.groups()) * ha.groupBytes)
		*pt = aggTable{}
	}
	var charged int64
	for i := range ha.shards {
		sh := &ha.shards[i]
		charged += sh.charged
		sh.charged = 0
		sh.aggTable = aggTable{}
		sh.spill.drop()
		sh.spill = nil
	}
	ha.Mem.freeSmall(charged * ha.groupBytes)
	ha.Mem.releaseAll()
}
