package iterator

import (
	"fmt"
	"slices"
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

// aggPlan is the static half of one aggregate: what the operator works
// out from the AggSpec and the input schema.
type aggPlan struct {
	fn   AggFunc
	mode accMode
	arg  expr.Expr // nil for COUNT(*) and COUNT of an argument never NULL
	kind types.Kind
	// col is the argument's column when the aggregate is a SUM or AVG
	// of an Int64, Float64 or Date column that the program does not load
	// for another argument anyway: the update loop reads it in place. -1
	// otherwise.
	col int
	// vec is the step of the operator's program (aggArgs) whose vector is
	// arg over the block. It is -1 without an argument, for a column read
	// in place, and for an argument outside the fused shapes, whose
	// runtime kind a vector would coerce to the static one: those rows
	// are Eval'd into boxed Values instead.
	vec int
	// own: the aggregate keeps its own count, of the rows whose argument
	// was not NULL. A SUM or AVG of an argument that is never NULL
	// (expr.NotNull) reads the table's row count instead, as COUNT(*)
	// does; MIN, MAX and the boxed sums keep one to tell their first
	// value and to follow each row's runtime kind.
	own bool
}

// argOf is the argument an aggregate reads: none for a COUNT of an
// argument that is never NULL, which counts every row as COUNT(*) does.
func argOf(s AggSpec) expr.Expr {
	if s.Func == Count && expr.NotNull(s.Arg) {
		return nil
	}
	return s.Arg
}

// planAgg plans one aggregate, adding its argument to prog.
func planAgg(s AggSpec, inSch *types.Schema, prog *expr.Program) aggPlan {
	p := aggPlan{fn: s.Func, arg: argOf(s), col: -1, vec: -1}
	if p.arg != nil {
		p.kind = p.arg.Kind(inSch)
		if at, ok := prog.Find(p.arg); ok {
			p.vec = at
		} else if col, isCol := p.arg.(*expr.Col); isCol && (s.Func == Sum || s.Func == Avg) && p.kind != types.String {
			p.col = col.Idx
		} else if at, ok := prog.Add(p.arg); ok {
			p.vec = at
		}
	}
	switch {
	case s.Func == Count:
		p.mode = accCount
	case s.Func == Min || s.Func == Max:
		p.mode = accExtreme
	case p.col < 0 && (p.vec < 0 || p.kind == types.String):
		p.mode = accBoxed
	case s.Func == Sum && p.kind == types.Int64:
		p.mode = accSumInt
	default:
		p.mode = accSumFloat
	}
	p.own = p.arg != nil && p.col < 0 &&
		!(expr.NotNull(p.arg) && (p.mode == accSumInt || p.mode == accSumFloat))
	return p
}

// aggPlans is the static half of an operator's aggregates: one plan,
// and so one accumulator, per distinct function and argument — a
// two-phase AVG splits into a SUM and a COUNT, and Q1's partial then
// asks for SUM(l_quantity) twice — and the program that evaluates their
// arguments, each distinct subexpression once per block. It is built
// once per operator and shared by its workers.
type aggPlans struct {
	plans []aggPlan
	accOf []int // per AggSpec, the plan that answers it
	prog  expr.Program
	// boxed: some argument is outside the fused shapes and is Eval'd row
	// by row (plan display).
	boxed bool
}

// init plans specs over inSch, in place: the program is a field of the
// operator, and its workers point at it there.
func (a *aggPlans) init(specs []AggSpec, inSch *types.Schema) {
	a.accOf = make([]int, len(specs))
	a.plans = make([]aggPlan, 0, len(specs))
	a.prog = *expr.NewProgram(inSch)
	// Computed arguments first, so that a column they load is there for
	// a SUM of that column to read rather than read it again in place.
	for _, s := range specs {
		if _, isCol := s.Arg.(*expr.Col); !isCol && argOf(s) != nil {
			a.prog.Add(s.Arg)
		}
	}
	for j, s := range specs {
		if i := slices.IndexFunc(specs[:j], func(t AggSpec) bool {
			return t.Func == s.Func && expr.Same(argOf(t), argOf(s))
		}); i >= 0 {
			a.accOf[j] = a.accOf[i]
			continue
		}
		p := planAgg(s, inSch, &a.prog)
		a.boxed = a.boxed || (p.arg != nil && p.col < 0 && p.vec < 0)
		a.accOf[j] = len(a.plans)
		a.plans = append(a.plans, p)
	}
}

// aggArgs is one worker's vectors of an operator's program: the
// arguments of every aggregate that has a kernel, evaluated once per
// block, for a hash aggregation's worker or an aggregating join's.
type aggArgs struct {
	prog *expr.Program
	vecs []*expr.Vec // per program step
}

func newAggArgs(prog *expr.Program) aggArgs {
	return aggArgs{prog: prog, vecs: prog.Vecs()}
}

// eval runs the program over the selected rows of b (sel nil = all).
func (a *aggArgs) eval(b *block.Block, sel []int32) {
	if len(a.vecs) > 0 {
		a.prog.Run(b, sel, a.vecs)
	}
}

// vec returns plan p's argument vector over the current block, nil when
// it has none.
func (a *aggArgs) vec(p *aggPlan) *expr.Vec {
	if p.vec < 0 {
		return nil
	}
	return a.vecs[p.vec]
}

// value boxes the aggregate's argument for one row: entry pos of the
// vector when the argument has a kernel, Eval of row rec of b, gathered
// into *scratch, otherwise.
func (p *aggPlan) value(b *block.Block, sch *types.Schema, v *expr.Vec, pos, rec int32, scratch *[]byte) types.Value {
	if v != nil {
		return v.Value(int(pos))
	}
	*scratch = b.ReadRow(int(rec), *scratch)
	return p.arg.Eval(*scratch, sch)
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

// update folds rows of b into the accumulators of their groups: the
// row at position rows[j] of the block's vectors, which is record
// recs[j] of b, belongs to group gids[j]. v is the argument's vector,
// nil when the plan has none.
func (a *aggAcc) update(p *aggPlan, b *block.Block, sch *types.Schema, v *expr.Vec, rows, recs, gids []int32) {
	cnt := a.cnt
	switch {
	case p.arg == nil: // the table's row count is the answer
	case p.col >= 0:
		a.updateColumn(p, b.Col(p.col), recs, gids)
	case p.mode == accSumInt && !p.own:
		sum, in := a.sumI, v.I
		for j, g := range gids {
			sum[g] += in[rows[j]]
		}
	case p.mode == accSumFloat && !p.own && v.Kind == types.Float64:
		sum, in := a.sumF, v.F
		for j, g := range gids {
			sum[g] += in[rows[j]]
		}
	case p.mode == accSumFloat && !p.own:
		sum, in := a.sumF, v.I
		for j, g := range gids {
			sum[g] += float64(in[rows[j]])
		}
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
		var rec []byte
		for j, g := range gids {
			if x := p.value(b, sch, v, rows[j], recs[j], &rec); !x.Null {
				a.fold(p, g, x)
			}
		}
	}
}

// updateColumn is update for a SUM or AVG of a column: it reads row
// recs[j]'s value in col, the column p.col of the block. A record column
// is never NULL, so there is no count to keep.
func (a *aggAcc) updateColumn(p *aggPlan, col []byte, recs, gids []int32) {
	switch {
	case p.mode == accSumInt:
		sum := a.sumI
		for j, g := range gids {
			sum[g] += types.GetInt(col, int(recs[j])*8)
		}
	case p.kind == types.Float64:
		sum := a.sumF
		for j, g := range gids {
			sum[g] += types.GetFloat(col, int(recs[j])*8)
		}
	default: // an Int64 or Date column into a float sum
		sum := a.sumF
		for j, g := range gids {
			sum[g] += float64(types.GetInt(col, int(recs[j])*8))
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

// emit writes the aggregate's result, a value of column c, into the n
// slots of dst, a column: slot r gets group gids[r], or group r when
// gids is nil. cnt is the count it reads (counts). A NULL result stores
// the zero value, as PutValue does: records carry no null bitmap.
func (a *aggAcc) emit(p *aggPlan, c types.Column, dst []byte, n int, gids []int32, cnt []int64) {
	kind := c.Kind
	g := func(r int) int {
		if gids == nil {
			return r
		}
		return int(gids[r])
	}
	switch {
	case p.fn == Count:
		for r := 0; r < n; r++ {
			types.PutInt(dst, r*8, cnt[g(r)])
		}
	case p.fn == Sum && kind == types.Int64:
		for r := 0; r < n; r++ {
			types.PutInt(dst, r*8, a.sumI[g(r)])
		}
	case p.fn == Sum:
		for r := 0; r < n; r++ {
			types.PutFloat(dst, r*8, a.sumF[g(r)])
		}
	case p.fn == Avg:
		for r := 0; r < n; r++ {
			var avg float64
			if c := cnt[g(r)]; c > 0 {
				avg = a.sumF[g(r)] / float64(c)
			}
			types.PutFloat(dst, r*8, avg)
		}
	default: // Min, Max
		for r := 0; r < n; r++ {
			x := types.NullVal(kind)
			if a.cnt[g(r)] > 0 {
				x = a.ext[g(r)]
			}
			types.PutField(dst, r*c.Width, c, x)
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

// resolve finds the group of every row in sel (positions in the block's
// encoded keys and vectors), adding a group for a key the table does
// not hold when admit allows one more. The rows that now have a group,
// their records in b and their ids are left in w.rows, w.recs and
// w.gids; the rows refused one are appended to rest. A keyless
// aggregation has one group, which holds every row: its table adds the
// group if admit allows and every row resolves to 0, with no key to
// encode, hash or look up.
func (t *aggTable) resolve(ha *HashAgg, w *aggWorker, b *block.Block, sel, rest []int32, admit func() bool) []int32 {
	if ha.scalar {
		w.rows, w.recs, w.gids = sel[:0], w.recs[:0], w.zeros[:0]
		if t.groups() == 0 {
			if !admit() {
				return append(rest, sel...)
			}
			t.add(ha, ha.scalarHash, nil)
		}
		w.rows, w.gids = sel, w.zeros[:len(sel)]
		for _, j := range sel {
			w.recs = append(w.recs, w.at[j])
		}
		return rest
	}
	rows, recs, gids := w.rows[:0], w.recs[:0], w.gids[:0]
	for _, j := range sel {
		h := w.keys.Hash(int(j))
		var key []byte
		if !ha.wordKey {
			key = w.keys.Key(int(j))
		}
		g := t.lookup(ha, h, key)
		if g < 0 {
			if !admit() {
				rest = append(rest, j)
				continue
			}
			var keyRow []byte
			g, keyRow = t.add(ha, h, key)
			ha.putKey(keyRow, b, int(w.at[j]), &w.rec)
		}
		rows = append(rows, j)
		recs = append(recs, w.at[j])
		gids = append(gids, g)
	}
	w.rows, w.recs, w.gids = rows, recs, gids
	return rest
}

// keyMove copies one key column of an input row (column src) to the
// output row's key prefix (at offset dst). A CHAR column is cut at its
// first NUL and zero-filled, as PutValue writes the string Eval reads:
// keys equal up to a NUL are one group, and the group's key must not
// depend on which row came first.
type keyMove struct {
	src, dst, width int
	char            bool
}

// keyMoves returns one move per key when every key is a column whose
// input slot matches its output slot in kind and width, or nil.
func keyMoves(keys []expr.Expr, inSch, outSch *types.Schema) []keyMove {
	moves := make([]keyMove, len(keys))
	for c, k := range keys {
		col, ok := k.(*expr.Col)
		if !ok {
			return nil
		}
		in, out := inSch.Cols[col.Idx], outSch.Cols[c]
		if in.Kind != out.Kind || in.Width != out.Width {
			return nil
		}
		moves[c] = keyMove{src: col.Idx, dst: outSch.Offset(c), width: out.Width, char: out.Kind == types.String}
	}
	return moves
}

// putKey writes the key columns of row i of b to keyRow, a new group's
// key prefix: by byte moves when there are moves, by Eval of the row,
// gathered into *scratch, and PutValue otherwise.
func (ha *HashAgg) putKey(keyRow []byte, b *block.Block, i int, scratch *[]byte) {
	if ha.keyMoves == nil {
		*scratch = b.ReadRow(i, *scratch)
		for c, k := range ha.keys {
			types.PutValue(keyRow, ha.outSch, c, k.Eval(*scratch, ha.inSch))
		}
		return
	}
	for _, m := range ha.keyMoves {
		dst, at := keyRow[m.dst:m.dst+m.width], i*m.width
		col := b.Col(m.src)
		if !m.char {
			copy(dst, col[at:at+m.width])
			continue
		}
		n := copy(dst, types.GetStringBytes(col, at, m.width))
		clear(dst[n:])
	}
}

// update counts the rows resolve placed into their groups, then runs
// one loop per aggregate over them.
func (t *aggTable) update(ha *HashAgg, w *aggWorker, b *block.Block) {
	if len(w.rows) == 0 {
		return
	}
	if ha.scalar {
		t.cnt[0] += int64(len(w.rows))
	} else {
		cnt := t.cnt
		for _, g := range w.gids {
			cnt[g]++
		}
	}
	for j := range ha.plans {
		p := &ha.plans[j]
		t.accs[j].update(p, b, ha.inSch, w.vec(p), w.rows, w.recs, w.gids)
	}
}

// emit appends one output row per group to out.
func (t *aggTable) emit(ha *HashAgg, out *block.Block) {
	n, base := t.groups(), out.NumTuples()
	out.EnsureRoom(n)
	out.SetLen(base + n)
	ks := ha.keyStride
	for c := range ha.keys {
		off, w := ha.outSch.Offset(c), ha.outSch.Cols[c].Width
		dst := out.Col(c)[base*w:]
		for g := 0; g < n; g++ {
			copy(dst[g*w:g*w+w], t.keyRows[g*ks+off:])
		}
	}
	for j, k := range ha.accOf {
		p := &ha.plans[k]
		c := len(ha.keys) + j
		col := ha.outSch.Cols[c]
		t.accs[k].emit(p, col, out.Col(c)[base*col.Width:], n, nil, counts(p, &t.accs[k], t.cnt))
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
//
// A block's rows have positions 0 to n-1: the order of its encoded keys
// and argument vectors, which cover only the rows its input's selection
// keeps. at maps a position to its record in the block.
type aggWorker struct {
	keys *expr.BatchKeyEncoder // nil for a keyless aggregation
	aggArgs
	byShard scatter
	sel     *[]int32 // the input filter's selection buffer (lender), from selPool
	at      []int32  // per position of the current block, its record
	all     []int32  // 0, 1, 2, …: the positions of a block, and its records when nothing is selected
	zeros   []int32  // group 0 for every row: a keyless aggregation's ids
	rows    []int32  // resolve's output: the positions it placed
	recs    []int32  // and their records
	gids    []int32  // and their group ids
	over    []int32  // positions the private table handed on
	spilt   []int32  // positions a shard refused a group
	rec     []byte   // a gathered input row, for a key that is Eval'd
}

// HashAgg is the hash aggregation iterator (Appendix Algorithm 7):
// Open consumes the entire child dataflow, updating the hash table(s)
// under the configured algorithm; Next emits result blocks from the
// global table behind an atomic shard cursor.
//
// Open works a block at a time. Over a filter it reads the filter's
// selection over the input block in place of a gathered copy (lender).
// A worker encodes the selected rows' keys and runs the arguments'
// program once, resolves each row to a dense group id — first in its
// private table, then, for the rows that table handed on, shard by
// shard in the global one, each shard's lock taken once per block —
// counts the rows into their groups, and runs one loop per distinct
// aggregate over the resolved ids into accumulator columns. A SUM or AVG
// of a column the program does not load reads it in place in that loop.
// A keyless aggregation resolves every row to its one group without a
// key.
type HashAgg struct {
	child  Iterator
	inSch  *types.Schema
	outSch *types.Schema
	keys   []expr.Expr
	algo   AggAlgorithm
	aggPlans

	// scalar: no keys, one group, of hash scalarHash.
	scalar     bool
	scalarHash uint64

	// Partial marks one node's share of a two-phase aggregation (set
	// before Open). Without keys and without input it emits no row: the
	// one row a scalar aggregate owes is the final aggregation's to
	// give, and a partial row of zeros would reach the final MIN and MAX
	// as a value.
	Partial bool

	// keyStride is the byte length of a group's key row: the key columns
	// laid out as the prefix of an output record.
	keyStride int
	// vectorized: the keys and every aggregate argument avoid the row
	// fallback; see Vectorized.
	vectorized bool
	// enc encodes the group keys; each worker forks it (nil when keyless).
	enc *expr.BatchKeyEncoder
	// wordKey: the group key packs into one word, whose hash is the key
	// (expr.NewGroupKeyEncoder). Tables then hold no key bytes and
	// compare hashes only.
	wordKey bool
	// keyMoves writes a new group's key columns from its first row when
	// every key is a column whose input and output slots agree in kind
	// and width; nil evaluates the keys (putKey).
	keyMoves []keyMove

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
	pool      contextPool[*aggTable]
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
	return newHashAgg(child, inSch, keys, keyNames, specs, algo, aggShards)
}

// NewSerialHashAgg builds a hash aggregation for a single-worker driver
// (the engine's serial fast path). Shard fan-out only pays off under
// concurrent workers, so its global table has one shard: setting up 64
// would dominate a microsecond-scale query. Private tables exist to cut
// shared-table contention, which a lone worker has none of, so it runs
// the shared algorithm and skips the private table, its merge pass and
// the context-pool round trip.
func NewSerialHashAgg(child Iterator, inSch *types.Schema, keys []expr.Expr,
	keyNames []string, specs []AggSpec) *HashAgg {
	return newHashAgg(child, inSch, keys, keyNames, specs, SharedAgg, 1)
}

func newHashAgg(child Iterator, inSch *types.Schema, keys []expr.Expr,
	keyNames []string, specs []AggSpec, algo AggAlgorithm, shards int) *HashAgg {
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
		scalar:  len(keys) == 0,
		shards:  make([]aggShard, shards),
		done:    NewBarrier(),
		flushed: NewBarrier(),
	}
	ha.keyStride = ha.outSch.Stride()
	if len(specs) > 0 {
		ha.keyStride = ha.outSch.Offset(len(keys))
	}
	ha.aggPlans.init(specs, inSch)
	ha.groupBytes = int64(112 + 56*len(ha.plans) + 32*len(keys))
	ha.keyMoves = keyMoves(keys, inSch, ha.outSch)
	if !ha.scalar {
		ha.enc = expr.NewGroupKeyEncoder(keys, inSch)
		ha.wordKey = ha.enc.Word()
	}
	ha.vectorized = (ha.scalar || ha.enc.Vectorized()) && !ha.boxed
	ha.seedScalar()
	return ha
}

// seedScalar gives an aggregation without keys its one group up front:
// it returns exactly one row even on empty input (COUNT(*) of nothing
// is 0).
func (ha *HashAgg) seedScalar() {
	if ha.scalar {
		ha.scalarHash = expr.Hash64(nil)
		ha.shard(ha.scalarHash).add(ha, ha.scalarHash, nil)
		ha.memGroups.Store(1)
	}
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
	w := &aggWorker{aggArgs: newAggArgs(&ha.prog)}
	if !ha.scalar {
		w.keys = ha.enc.Fork()
	}
	return w
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
		if priv = ha.pool.get(); priv == nil {
			priv = new(aggTable)
		}
	}
	w := ha.newWorker()
	src := lenderOf(ha.child)
	if src != nil {
		sp := selPool.Get().(*[]int32)
		defer selPool.Put(sp)
		w.sel = sp
	}
	for {
		var b *block.Block
		var sel []int32
		var st Status
		if src != nil {
			b, sel, st = src.lend(ctx, w.sel)
		} else {
			b, st = ha.child.Next(ctx)
		}
		if st == Terminated {
			// Park the private table for reuse by a future worker
			// before detaching (Algorithm 7 lines 9-13).
			if priv != nil {
				ha.pool.put(priv)
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
		rows := w.encode(b, sel)
		if priv != nil {
			rows = ha.absorbPrivate(w, priv, b, rows)
		}
		ha.absorbGlobal(w, b, rows, true)
		ha.rowsIn.Add(int64(len(w.at)))
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
		for _, pt := range ha.pool.drain() {
			ha.flushPrivate(pt)
		}
	}
	ha.flushed.Arrive()
	return OK
}

// encode makes the column passes over the rows of b that sel selects
// (nil: all of them) — the keys, then the arguments' program — and
// returns their positions, 0 to n-1.
func (w *aggWorker) encode(b *block.Block, sel []int32) []int32 {
	n := b.NumTuples()
	if sel != nil {
		n = len(sel)
	}
	if w.keys != nil {
		w.keys.EncodeBlock(b, sel)
	}
	w.eval(b, sel)
	if n > cap(w.all) {
		// One backing array for the vectors no block outgrows.
		buf := make([]int32, 5*n)
		w.all, w.zeros = buf[:n:n], buf[n:2*n:2*n]
		w.rows, w.recs, w.gids = buf[2*n:2*n:3*n], buf[3*n:3*n:4*n], buf[4*n:4*n]
		for i := range w.all {
			w.all[i] = int32(i)
		}
	}
	w.at = sel
	if sel == nil {
		w.at = w.all[:n]
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
	if len(ha.shards) == 1 || ha.scalar {
		ha.absorbShard(w, ha.shard(ha.scalarHash), b, sel, maySpill)
		return
	}
	for shi, s := range w.byShard.shards(w.keys, sel, len(w.at)) {
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
	for _, j := range w.spilt {
		if err := sh.spill.addRow(b, int(w.at[j])); err != nil {
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
	err := sf.iterate(func(b *block.Block) error {
		ha.absorbShard(w, sh, b, w.encode(b, nil), false)
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
	for _, pt := range ha.pool.drain() {
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
