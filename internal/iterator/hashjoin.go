package iterator

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/expr"
	"repro/internal/types"
)

// HashJoin is an equi hash join (Appendix Algorithm 6). The build-side
// hash table is a single shared structure that all worker threads
// construct collaboratively in Open and probe lock-free in Next — the
// state-sharing design that makes expansion and shrinkage cheap
// (Section 3): a new worker joins the build mid-flight and a departing
// worker leaves no state to migrate.
//
// The table is sharded by key hash; each shard has its own lock, row
// pages and chained index (joinTable), so concurrent builders rarely
// contend (the paper's "lock-free structures ... to avoid the latching
// cost" amounts to the same contention-avoidance goal; sharding is the
// idiomatic Go equivalent). A builder scatters each input block's rows
// by shard first and takes every shard lock once per block, not once
// per row.
//
// Build rows live in fixed-size arena pages charged to the operator's
// budget account (Mem). When a page reservation is refused, the largest
// resident shard spills: its rows serialize to a temp file through the
// block encoding, its pages return to the arena, and later build rows
// for that shard go straight to the file. Probe rows that hash to a
// spilled shard are deferred to a per-shard probe file; after all
// workers drain the probe input, spilled shards are re-processed one at
// a time — rebuild from the build file, stream the probe file — so peak
// memory is one shard instead of the whole table.
//
// A join built by NewHashJoinAgg aggregates its matches per build row
// (the groupjoin): each match folds into its build row's partial states,
// which live beside the row in its shard, and once every worker has
// probed the join emits one row per matched build row instead of one
// per match. The states are the hash aggregation's own accumulators,
// indexed by the shard's dense row id, and they are updated under the
// shard lock once per probe block, so like the table they are shared:
// a worker that leaves mid-probe leaves nothing to move.
type HashJoin struct {
	build, probe Iterator
	buildSch     *types.Schema
	probeSch     *types.Schema
	outSch       *types.Schema
	buildKeys    []expr.Expr
	probeKeys    []expr.Expr

	// Mem wires the join into memory governance (set by the engine
	// before Open; nil runs unbudgeted and never spills).
	Mem *MemConfig

	vectorized bool // both key sets (and the aggregate arguments) avoid the row fallback; see Vectorized
	pageBytes  int
	pageRows   int

	// perBuildRow: the join aggregates its matches per build row with
	// aggs (NewHashJoinAgg).
	perBuildRow bool
	aggs        []aggPlan
	probed      atomic.Int64 // probe rows read
	outRows     atomic.Int64 // rows put out, or owed once the probe ends
	lastVR      atomicFloat  // the last visit rate the probe input carried

	shards     []joinShard
	built      *Barrier
	probeDone  *Barrier
	buildRows  atomic.Int64
	memTracked atomic.Int64

	// spillMu serializes spill decisions; nSpilled counts spilled
	// shards (frozen once the build barrier passes).
	spillMu  sync.Mutex
	nSpilled atomic.Int32
	// workers holds each worker's probe-side state, keyed by the
	// worker's persistent Ctx: Next is re-entered once per output
	// block, and the state must outlive the call.
	workers  sync.Map // *Ctx → *joinWorker
	postOnce once
	spillCur atomic.Int64

	errMu    sync.Mutex
	spillErr error
}

// joinWorker is one worker's private probe state.
type joinWorker struct {
	keys *expr.BatchKeyEncoder // probe keys; its buffers are reused block after block
	// probeEnded records that the worker already arrived at probeDone,
	// so the buffered-output protocol in Next arrives exactly once.
	probeEnded bool

	// An aggregating join's scratch: the argument vectors, the block's
	// rows by shard, and the matches of one shard as probe rows and
	// their build row ids.
	aggArgs
	byShard   scatter
	rows, ids []int32
	all       []int32 // 0, 1, 2, …: see every
}

type joinShard struct {
	mu    sync.Mutex
	tab   joinTable // key → row ids (page-major offsets)
	pages [][]byte  // arena-backed fixed-stride row pages
	nrows int       // rows resident in pages
	bytes int64     // resident page bytes

	spilled bool
	build   *spillFile // build rows of a spilled shard
	probes  *spillFile // deferred probe rows for a spilled shard

	// An aggregating join's partial states, from the shard's first
	// match; perMatch when the budget refused them, and every match of
	// the shard leaves as a partial row of its own.
	acc      *joinAcc
	perMatch bool
}

// joinAcc is the partial aggregates of one shard's build rows: a count
// of matches and the accumulators the hash aggregation keeps per group,
// indexed by build row id.
type joinAcc struct {
	cnt   []int64
	accs  []aggAcc
	bytes int64 // charged to the budget
}

func newJoinAcc(plans []aggPlan, n int) *joinAcc {
	a := &joinAcc{cnt: make([]int64, n), accs: make([]aggAcc, len(plans))}
	for j := range a.accs {
		a.accs[j].grow(&plans[j], n, n)
	}
	return a
}

const joinShards = 1 << shardBits

// joinPageTarget sizes build-side row pages. Small pages (an arena
// class) keep the per-shard floor low — a join pins at most
// joinShards*joinPageTarget of slop beyond its rows — and give the
// budget a fine spill granularity.
const joinPageTarget = 4 << 10

// NewHashJoin builds a hash join. The output schema is the build schema
// concatenated with the probe schema.
func NewHashJoin(build, probe Iterator, buildSch, probeSch *types.Schema,
	buildKeys, probeKeys []expr.Expr) *HashJoin {
	hj := &HashJoin{
		build: build, probe: probe,
		buildSch: buildSch, probeSch: probeSch,
		outSch:    buildSch.Concat(probeSch),
		buildKeys: buildKeys, probeKeys: probeKeys,
		shards:    make([]joinShard, joinShards),
		built:     NewBarrier(),
		probeDone: NewBarrier(),
	}
	hj.vectorized = expr.NewBatchKeyEncoder(buildKeys, buildSch).Vectorized() &&
		expr.NewBatchKeyEncoder(probeKeys, probeSch).Vectorized()
	stride := buildSch.Stride()
	hj.pageRows = joinPageTarget / stride
	if hj.pageRows < 1 {
		hj.pageRows = 1
	}
	hj.pageBytes = hj.pageRows * stride
	return hj
}

// MatchCount names the match-count column of an aggregating join.
const MatchCount = "__matches"

// PerBuildRowSchema is the output of a join that aggregates its matches
// per build row: the build columns, the match count, then one partial
// column per aggregate of specs, whose arguments read the probe schema.
func PerBuildRowSchema(buildSch, probeSch *types.Schema, specs []AggSpec) *types.Schema {
	cols := append(append([]types.Column(nil), buildSch.Cols...), types.Col(MatchCount, types.Int64))
	for _, s := range specs {
		cols = append(cols, s.Column(probeSch))
	}
	return types.NewSchema(cols...)
}

// NewHashJoinAgg builds a join that aggregates its matches per build
// row with specs (SUM, COUNT, MIN and MAX over probe-side arguments)
// and emits, for every build row that matched, the row, its match count
// and one partial per aggregate (PerBuildRowSchema). A hash aggregation
// above it merges the partials.
func NewHashJoinAgg(build, probe Iterator, buildSch, probeSch *types.Schema,
	buildKeys, probeKeys []expr.Expr, specs []AggSpec) *HashJoin {
	hj := NewHashJoin(build, probe, buildSch, probeSch, buildKeys, probeKeys)
	hj.perBuildRow = true
	hj.outSch = PerBuildRowSchema(buildSch, probeSch, specs)
	hj.aggs = make([]aggPlan, len(specs))
	for j, s := range specs {
		hj.aggs[j] = planAgg(s, probeSch)
		if p := &hj.aggs[j]; p.arg != nil && p.off < 0 && p.kern == nil {
			hj.vectorized = false
		}
	}
	return hj
}

// Schema returns the join output schema.
func (hj *HashJoin) Schema() *types.Schema { return hj.outSch }

// Vectorized reports whether both key sets avoid the row-at-a-time
// fallback when computed batch-at-a-time (plan display).
func (hj *HashJoin) Vectorized() bool { return hj.vectorized }

// BuildRows returns the number of rows inserted into the hash table.
func (hj *HashJoin) BuildRows() int64 { return hj.buildRows.Load() }

// MemBytes returns the bytes currently held by resident row pages.
func (hj *HashJoin) MemBytes() int64 { return hj.memTracked.Load() }

// Spilled returns the number of shards spilled to disk.
func (hj *HashJoin) Spilled() int { return int(hj.nSpilled.Load()) }

// SpillError returns the first spill I/O error, if any; the engine
// fails the query on it (a half-written spill file cannot produce a
// correct join).
func (hj *HashJoin) SpillError() error {
	hj.errMu.Lock()
	defer hj.errMu.Unlock()
	return hj.spillErr
}

func (hj *HashJoin) setSpillErr(err error) {
	hj.errMu.Lock()
	if hj.spillErr == nil {
		hj.spillErr = err
	}
	hj.errMu.Unlock()
	hj.Mem.spillFailed()
}

// Open runs the parallel build phase: every worker pulls build-side
// blocks and inserts tuples into the shared table until the build input
// is exhausted, then waits at the built barrier. Workers arriving after
// the build completed fall through immediately.
func (hj *HashJoin) Open(ctx *Ctx) Status {
	ctx.RegisterBarrier(hj.built)
	ctx.RegisterBarrier(hj.probeDone)
	if st := hj.build.Open(ctx); st == Terminated {
		ctx.BroadcastExit()
		return Terminated
	}
	// Each worker owns its key encoder and scatter scratch.
	keys := expr.NewBatchKeyEncoder(hj.buildKeys, hj.buildSch)
	var byShard scatter
	for {
		b, st := hj.build.Next(ctx)
		if st == Terminated {
			ctx.BroadcastExit()
			return Terminated
		}
		if st == End {
			break
		}
		rows := keys.EncodeBlock(b, nil)
		for shi, sel := range byShard.shards(keys, nil, rows) {
			if len(sel) > 0 {
				hj.insertBuild(&hj.shards[shi], b, sel, keys)
			}
		}
		hj.buildRows.Add(int64(rows))
		b.Recycle() // its rows are in the shards' pages or spill files
	}
	hj.built.Arrive()
	// The probe child's Open is itself thread-safe; every worker passes
	// through it after the build barrier.
	if st := hj.probe.Open(ctx); st == Terminated {
		ctx.BroadcastExit()
		return Terminated
	}
	return OK
}

// insertBuild adds the rows sel of b — all hashing to shard sh, keyed
// by keys' last EncodeBlock — under one acquisition of the shard lock:
// to the spill file when the shard is spilled, otherwise into the
// shard's pages and table.
func (hj *HashJoin) insertBuild(sh *joinShard, b *block.Block, sel []int32, keys *expr.BatchKeyEncoder) {
	stride := hj.buildSch.Stride()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, i := range sel {
		rec := b.Row(int(i))
		if !hj.ensurePage(sh) {
			if err := sh.build.add(rec); err != nil {
				hj.setSpillErr(err)
				return
			}
			continue
		}
		pg := sh.pages[sh.nrows/hj.pageRows]
		copy(pg[(sh.nrows%hj.pageRows)*stride:], rec)
		sh.tab.insert(keys.Hash(int(i)), keys.Key(int(i)))
		sh.nrows++
	}
}

// ensurePage makes room in sh (locked by the caller) for one more
// resident row, allocating a new page through the budget when the last
// one is full. A refused page reservation sheds the largest resident
// shard and retries; the shard lock is dropped around that. It reports
// false when sh is spilled — before the call or by it — and the row
// belongs in the spill file.
func (hj *HashJoin) ensurePage(sh *joinShard) bool {
	for {
		if sh.spilled {
			return false
		}
		if sh.nrows < len(sh.pages)*hj.pageRows {
			return true
		}
		if hj.Mem.enabled() && !hj.Mem.reserveSmall(int64(hj.pageBytes)) {
			if hj.Mem.canSpill() {
				sh.mu.Unlock()
				spilt := hj.spillOne()
				sh.mu.Lock()
				if spilt {
					continue
				}
			}
			// Nothing left to shed (or nowhere to spill): take the
			// soft path so the build completes; the scheduler's
			// watermark reaction absorbs the excess.
			hj.Mem.forceSmall(int64(hj.pageBytes))
		}
		sh.pages = append(sh.pages, block.GetBuf(hj.pageBytes))
		sh.bytes += int64(hj.pageBytes)
		hj.memTracked.Add(int64(hj.pageBytes))
		return true
	}
}

// spillOne serializes the largest resident shard to disk and frees its
// pages. It reports whether any shard was shed. Spills happen only
// during the build phase, so by the time anyone probes, the spilled set
// is frozen (the built barrier publishes it).
func (hj *HashJoin) spillOne() bool {
	hj.spillMu.Lock()
	defer hj.spillMu.Unlock()
	vi := -1
	var vbytes int64
	for i := range hj.shards {
		sh := &hj.shards[i]
		sh.mu.Lock()
		if !sh.spilled && sh.nrows > 0 && sh.bytes > vbytes {
			vi, vbytes = i, sh.bytes
		}
		sh.mu.Unlock()
	}
	if vi < 0 {
		return false
	}
	sh := &hj.shards[vi]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.spilled || sh.nrows == 0 {
		return false
	}
	spillStart := time.Now()
	sf, err := newSpillFile(hj.Mem.SpillDir, hj.buildSch)
	if err != nil {
		hj.Mem.spillFailed()
		return false
	}
	stride := hj.buildSch.Stride()
	for r := 0; r < sh.nrows; r++ {
		pg := sh.pages[r/hj.pageRows]
		off := (r % hj.pageRows) * stride
		if err := sf.add(pg[off : off+stride]); err != nil {
			sf.drop()
			hj.setSpillErr(err)
			return false
		}
	}
	rows := sh.nrows
	freed := sh.bytes
	for _, pg := range sh.pages {
		block.PutBuf(pg)
	}
	sh.pages, sh.tab = nil, joinTable{}
	sh.nrows, sh.bytes = 0, 0
	sh.spilled = true
	sh.build = sf
	hj.nSpilled.Add(1)
	hj.memTracked.Add(-freed)
	hj.Mem.freeSmall(freed)
	hj.Mem.spilled(vi, freed, int64(rows), "build", time.Since(spillStart))
	return true
}

// Next probes the table with tuples from the probe side and emits
// concatenated matches (an aggregating join: see nextPerBuildRow).
// Probing resident shards is read-only, so no locking is needed; rows
// hashing to spilled shards are deferred to per-shard probe files and
// re-joined after the probe input drains.
func (hj *HashJoin) Next(ctx *Ctx) (*block.Block, Status) {
	w := hj.worker(ctx)
	if hj.perBuildRow {
		return hj.nextPerBuildRow(ctx, w)
	}
	target := block.DefaultSize/hj.outSch.Stride()/2 + 1
	var out *block.Block
	for {
		in, st := hj.probe.Next(ctx)
		if st != OK {
			if out != nil {
				if out.NumTuples() > 0 {
					return out, OK
				}
				out.Recycle() // started, and nothing matched into it
			}
			if st == End {
				return hj.endProbe(ctx, w)
			}
			return nil, st
		}
		if out == nil {
			out = block.New(hj.outSch, 0, ctx.Tracker)
			out.Seq = in.Seq
			out.Socket = in.Socket
		}
		n := w.keys.EncodeBlock(in, nil)
		// Room for one match per probe row, taken once per block: only
		// fan-out beyond that grows the block inside the row loop.
		out.EnsureRoom(n)
		for i := 0; i < n; i++ {
			h := w.keys.Hash(i)
			sh := &hj.shards[shardOf(h)]
			if sh.spilled {
				hj.deferProbe(sh, in.Row(i))
				continue
			}
			hj.emitMatches(out, &sh.tab, sh.pages, h, w.keys.Key(i), in.Row(i))
		}
		sel := 1.0
		if n > 0 {
			sel = float64(out.NumTuples()) / float64(n)
		}
		out.VisitRate = in.VisitRate * sel
		in.Recycle() // matches are copied out, deferred rows are on file
		if out.NumTuples() >= target {
			return out, OK
		}
	}
}

// worker returns the calling worker's probe state, created on its
// first Next.
func (hj *HashJoin) worker(ctx *Ctx) *joinWorker {
	if w, ok := hj.workers.Load(ctx); ok {
		return w.(*joinWorker)
	}
	w := &joinWorker{keys: expr.NewBatchKeyEncoder(hj.probeKeys, hj.probeSch)}
	if hj.perBuildRow {
		w.aggArgs = newAggArgs(hj.aggs)
	}
	hj.workers.Store(ctx, w)
	return w
}

// emitMatches appends to out the concatenation of probe row rec with
// every build row of t (stored in pages) whose key equals key.
func (hj *HashJoin) emitMatches(out *block.Block, t *joinTable, pages [][]byte, h uint64, key, rec []byte) {
	stride := hj.buildSch.Stride()
	for id := t.lookup(h, key); id >= 0; id = t.after(id, h, key) {
		pg := pages[int(id)/hj.pageRows]
		po := (int(id) % hj.pageRows) * stride
		out.EnsureRoom(1)
		dst := out.AppendRowTo()
		copy(dst[:stride], pg[po:po+stride])
		copy(dst[stride:], rec)
	}
}

// deferProbe appends a probe row to its spilled shard's probe file.
func (hj *HashJoin) deferProbe(sh *joinShard, rec []byte) {
	sh.mu.Lock()
	if sh.probes == nil {
		sf, err := newSpillFile(hj.Mem.SpillDir, hj.probeSch)
		if err != nil {
			sh.mu.Unlock()
			hj.setSpillErr(err)
			return
		}
		sh.probes = sf
	}
	err := sh.probes.add(rec)
	sh.mu.Unlock()
	if err != nil {
		hj.setSpillErr(err)
	}
}

// endProbe runs once per worker when its probe input is exhausted: with
// no spills it simply ends; otherwise workers synchronize at the
// probeDone barrier (so every deferred probe row is on disk), the first
// one past frees the resident shards — no further probes can touch
// them — and then spilled shards are claimed one per call and
// re-joined from their files.
func (hj *HashJoin) endProbe(ctx *Ctx, w *joinWorker) (*block.Block, Status) {
	if hj.nSpilled.Load() == 0 {
		return nil, End
	}
	if !w.probeEnded {
		w.probeEnded = true
		hj.probeDone.Arrive()
	}
	if hj.postOnce.First() {
		hj.freeResident()
	}
	for {
		if ctx.Term.Requested() {
			return nil, Terminated // the operator above deregisters (Scan.Next)
		}
		i := hj.spillCur.Add(1) - 1
		if i >= int64(len(hj.shards)) {
			return nil, End
		}
		sh := &hj.shards[i]
		if !sh.spilled {
			continue
		}
		if b := hj.processSpilledShard(ctx, w, sh, nil); b != nil {
			if b.NumTuples() > 0 {
				return b, OK
			}
			b.Recycle()
		}
	}
}

// freeResident returns the resident shards' pages to the arena: every
// probe row that could match them has been emitted, so holding them
// through the spill pass would only raise the peak.
func (hj *HashJoin) freeResident() {
	for i := range hj.shards {
		if sh := &hj.shards[i]; !sh.spilled {
			hj.release(sh)
		}
	}
}

// release returns sh's pages and partial states to the arena and the
// budget. The caller owns sh: no worker probes it any more.
func (hj *HashJoin) release(sh *joinShard) {
	freed := sh.bytes
	for _, pg := range sh.pages {
		block.PutBuf(pg)
	}
	if sh.acc != nil {
		freed += sh.acc.bytes
	}
	sh.pages, sh.tab, sh.acc = nil, joinTable{}, nil
	sh.nrows, sh.bytes = 0, 0
	if freed > 0 {
		hj.memTracked.Add(-freed)
		hj.Mem.freeSmall(freed)
	}
}

// processSpilledShard re-joins one spilled shard, owned by the claiming
// worker: it rebuilds the shard's table from the build file, then
// streams the probe file against it — appending the matches to out, or,
// in an aggregating join, folding them into the rebuilt shard's own
// states and appending its matched build rows. out is allocated when
// nil; the result is returned.
func (hj *HashJoin) processSpilledShard(ctx *Ctx, w *joinWorker, sh *joinShard, out *block.Block) *block.Block {
	build, probes := sh.build, sh.probes
	sh.build, sh.probes = nil, nil
	defer build.drop()
	defer probes.drop()
	if probes == nil || probes.rows == 0 {
		return out
	}
	rs, err := hj.rebuild(build)
	defer hj.release(rs)
	if err != nil {
		hj.setSpillErr(err)
		return out
	}
	if hj.perBuildRow {
		err = probes.iterateBlocks(func(b *block.Block) error {
			n := w.keys.EncodeBlock(b, nil)
			w.eval(b)
			hj.probed.Add(int64(n))
			out = hj.absorb(ctx, w, rs, b, w.every(n), out)
			return nil
		})
		out = hj.emitShard(ctx, w, rs, out)
	} else {
		if out == nil {
			out = block.New(hj.outSch, 0, ctx.Tracker)
		}
		penc := expr.NewKeyEncoder(hj.probeKeys)
		err = probes.iterate(func(rec []byte) error {
			key := penc.Encode(rec, hj.probeSch)
			hj.emitMatches(out, &rs.tab, rs.pages, expr.Hash64(key), key, rec)
			return nil
		})
	}
	if err != nil {
		hj.setSpillErr(err)
	}
	return out
}

// rebuild loads a spilled shard's build rows into a new resident shard.
// Its pages are charged through the budget, falling back to the soft
// path: each worker rebuilds one shard at a time, and over-running here
// is bounded.
func (hj *HashJoin) rebuild(build *spillFile) (*joinShard, error) {
	rs := &joinShard{}
	stride := hj.buildSch.Stride()
	benc := expr.NewKeyEncoder(hj.buildKeys)
	err := build.iterate(func(rec []byte) error {
		if rs.nrows == len(rs.pages)*hj.pageRows {
			if !hj.Mem.reserveSmall(int64(hj.pageBytes)) {
				hj.Mem.forceSmall(int64(hj.pageBytes))
			}
			rs.pages = append(rs.pages, block.GetBuf(hj.pageBytes))
			rs.bytes += int64(hj.pageBytes)
			hj.memTracked.Add(int64(hj.pageBytes))
		}
		copy(rs.pages[rs.nrows/hj.pageRows][(rs.nrows%hj.pageRows)*stride:], rec)
		key := benc.Encode(rec, hj.buildSch)
		rs.tab.insert(expr.Hash64(key), key)
		rs.nrows++
		return nil
	})
	return rs, err
}

// nextPerBuildRow is Next for an aggregating join. While the probe input
// lasts, it folds each block's matches into their build rows' states,
// and what it returns is only the per-match rows of shards whose states
// the budget refused. Once the probe input is exhausted, see
// emitPerBuildRow.
func (hj *HashJoin) nextPerBuildRow(ctx *Ctx, w *joinWorker) (*block.Block, Status) {
	target := block.DefaultSize/hj.outSch.Stride()/2 + 1
	var out *block.Block
	for {
		in, st := hj.probe.Next(ctx)
		if st != OK {
			if out != nil {
				return hj.stamp(out), OK
			}
			if st == End {
				return hj.emitPerBuildRow(ctx, w)
			}
			// No BroadcastExit: the blocking operator above deregisters
			// once it has parked this worker's state (Scan.Next).
			return nil, st
		}
		if in.VisitRate > 0 {
			hj.lastVR.Store(in.VisitRate)
		}
		n := w.keys.EncodeBlock(in, nil)
		w.eval(in)
		hj.probed.Add(int64(n))
		for shi, sel := range w.byShard.shards(w.keys, nil, n) {
			if len(sel) == 0 {
				continue
			}
			sh := &hj.shards[shi]
			if sh.spilled {
				for _, i := range sel {
					hj.deferProbe(sh, in.Row(int(i)))
				}
				continue
			}
			out = hj.absorb(ctx, w, sh, in, sel, out)
		}
		in.Recycle() // states hold copies; deferred rows are on file
		if out != nil && out.NumTuples() >= target {
			return hj.stamp(out), OK
		}
	}
}

// absorb folds the matches in sh of probe rows sel of in — keys encoded
// and arguments evaluated by w — into their build rows' states, under
// one acquisition of sh's lock. The first match charges the shard's
// states to the budget; when that is refused, every match of the shard
// is appended to out instead, as a partial row of its own. absorb
// returns out, allocated when it was nil and a row was added.
func (hj *HashJoin) absorb(ctx *Ctx, w *joinWorker, sh *joinShard, in *block.Block, sel []int32, out *block.Block) *block.Block {
	// The table is read-only once built: find the matches outside the lock.
	rows, ids := w.rows[:0], w.ids[:0]
	for _, i := range sel {
		h, key := w.keys.Hash(int(i)), w.keys.Key(int(i))
		for id := sh.tab.lookup(h, key); id >= 0; id = sh.tab.after(id, h, key) {
			rows = append(rows, i)
			ids = append(ids, id)
		}
	}
	w.rows, w.ids = rows, ids
	if len(ids) == 0 {
		return out
	}
	sh.mu.Lock()
	if sh.acc == nil && !sh.perMatch {
		hj.startAcc(sh)
	}
	acc := sh.acc
	if acc == nil {
		sh.mu.Unlock()
		return hj.emitPerMatch(ctx, w, sh, in, out)
	}
	var matched int64 // build rows that had no match before this block
	for _, id := range ids {
		if acc.cnt[id] == 0 {
			matched++
		}
		acc.cnt[id]++
	}
	for j := range hj.aggs {
		acc.accs[j].update(&hj.aggs[j], in, hj.probeSch, w.vecs[j], rows, ids)
	}
	sh.mu.Unlock()
	hj.outRows.Add(matched)
	return out
}

// startAcc gives sh (locked by the caller) its partial states, charged
// to the budget at a round 8 bytes per build row for the count and for
// each aggregate, or marks it perMatch when the budget refuses them.
func (hj *HashJoin) startAcc(sh *joinShard) {
	bytes := int64(sh.nrows) * int64(8*(1+len(hj.aggs)))
	if !hj.Mem.reserveSmall(bytes) {
		sh.perMatch = true
		return
	}
	sh.acc = newJoinAcc(hj.aggs, sh.nrows)
	sh.acc.bytes = bytes
	hj.memTracked.Add(bytes)
}

// emitPerMatch appends the matches absorb found (w.rows, w.ids) to out
// as one partial row each: match count 1 and the states of that match
// alone, folded by the same accumulators, so an aggregation above reads
// them like any other partial row.
func (hj *HashJoin) emitPerMatch(ctx *Ctx, w *joinWorker, sh *joinShard, in *block.Block, out *block.Block) *block.Block {
	m := len(w.ids)
	acc := newJoinAcc(hj.aggs, m)
	for r := range acc.cnt {
		acc.cnt[r] = 1
	}
	for j := range hj.aggs {
		acc.accs[j].update(&hj.aggs[j], in, hj.probeSch, w.vecs[j], w.rows, w.every(m))
	}
	if out == nil {
		out = block.New(hj.outSch, 0, ctx.Tracker)
	}
	hj.writeRows(out, sh, w.ids, acc, nil)
	hj.outRows.Add(int64(m))
	return out
}

// emitPerBuildRow runs once a worker's probe input is exhausted. It
// waits at probeDone for every worker still probing — a state is final
// only then — and then claims shards one at a time behind an atomic
// cursor, so no two workers emit the same build row, until a block is
// full or no shard is left. A spilled shard is re-joined first.
func (hj *HashJoin) emitPerBuildRow(ctx *Ctx, w *joinWorker) (*block.Block, Status) {
	if !w.probeEnded {
		w.probeEnded = true
		hj.probeDone.Arrive()
	}
	target := block.DefaultSize/hj.outSch.Stride()/2 + 1
	var out *block.Block
	for out == nil || out.NumTuples() < target {
		if ctx.Term.Requested() {
			if out != nil && out.NumTuples() > 0 {
				break // deliver what this worker claimed; it detaches on the next call
			}
			if out != nil {
				out.Recycle()
			}
			return nil, Terminated
		}
		i := hj.spillCur.Add(1) - 1
		if i >= int64(len(hj.shards)) {
			break
		}
		if sh := &hj.shards[i]; sh.spilled {
			out = hj.processSpilledShard(ctx, w, sh, out)
		} else {
			out = hj.emitShard(ctx, w, sh, out)
		}
	}
	if out == nil {
		return nil, End
	}
	if out.NumTuples() == 0 {
		out.Recycle()
		return nil, End
	}
	return hj.stamp(out), OK
}

// emitShard appends to out one row per build row of sh that matched,
// then releases sh. The claiming worker owns sh.
func (hj *HashJoin) emitShard(ctx *Ctx, w *joinWorker, sh *joinShard, out *block.Block) *block.Block {
	defer hj.release(sh)
	if sh.acc == nil {
		return out
	}
	ids := w.ids[:0]
	for id, c := range sh.acc.cnt {
		if c > 0 {
			ids = append(ids, int32(id))
		}
	}
	w.ids = ids
	if len(ids) == 0 {
		return out
	}
	if out == nil {
		out = block.New(hj.outSch, 0, ctx.Tracker)
	}
	hj.writeRows(out, sh, ids, sh.acc, ids)
	return out
}

// writeRows appends one output row per build row ids[r] of sh: the
// build row, then the match count and the partials of group gids[r] of
// acc (group r when gids is nil).
func (hj *HashJoin) writeRows(out *block.Block, sh *joinShard, ids []int32, acc *joinAcc, gids []int32) {
	n, base := len(ids), out.NumTuples()
	out.EnsureRoom(n)
	out.SetLen(base + n)
	st, bst := hj.outSch.Stride(), hj.buildSch.Stride()
	nb := hj.buildSch.NumCols()
	cntOff := hj.outSch.Offset(nb)
	buf := out.Bytes()[base*st:]
	for r, id := range ids {
		pg := sh.pages[int(id)/hj.pageRows]
		po := (int(id) % hj.pageRows) * bst
		copy(buf[r*st:r*st+bst], pg[po:po+bst])
		g := r
		if gids != nil {
			g = int(gids[r])
		}
		types.PutInt(buf[r*st:], cntOff, acc.cnt[g])
	}
	for j := range hj.aggs {
		p := &hj.aggs[j]
		acc.accs[j].emit(p, hj.outSch, nb+1+j, buf, n, gids, counts(p, &acc.accs[j], acc.cnt))
	}
}

// stamp sets out's visit rate (Section 4.3): the probe input's, times
// the rows the join has put out per probe row it has read.
func (hj *HashJoin) stamp(out *block.Block) *block.Block {
	vr := hj.lastVR.Load()
	if vr <= 0 {
		vr = 1
	}
	if p := hj.probed.Load(); p > 0 {
		vr *= float64(hj.outRows.Load()) / float64(p)
	}
	out.VisitRate = vr
	return out
}

// every returns the selection naming rows 0 to n-1.
func (w *joinWorker) every(n int) []int32 {
	for len(w.all) < n {
		w.all = append(w.all, int32(len(w.all)))
	}
	return w.all[:n]
}

// Close implements Iterator. The elastic layer guarantees every worker
// has exited before Close runs, so freeing shared state here is safe.
func (hj *HashJoin) Close() {
	hj.build.Close()
	hj.probe.Close()
	for i := range hj.shards {
		sh := &hj.shards[i]
		hj.release(sh)
		sh.build.drop()
		sh.probes.drop()
		sh.build, sh.probes = nil, nil
	}
	hj.Mem.releaseAll()
}
