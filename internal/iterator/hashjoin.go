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
type HashJoin struct {
	build, probe Iterator
	buildSch     *types.Schema
	probeSch     *types.Schema
	outSch       *types.Schema
	buildKeys    []expr.Expr
	probeKeys    []expr.Expr

	// RowExec forces row-at-a-time key computation (set before Open):
	// every key expression is Eval'd per tuple. The default computes
	// build and probe keys through the kernels of a BatchKeyEncoder,
	// one vectorized pass per key column per block. Both produce
	// byte-identical keys and Hash64 placements, so they interoperate
	// freely — including against spilled rows, which are always
	// re-keyed row-at-a-time.
	RowExec bool

	// Mem wires the join into memory governance (set by the engine
	// before Open; nil runs unbudgeted and never spills).
	Mem *MemConfig

	vectorized bool // both key sets avoid the row fallback; see Vectorized
	pageBytes  int
	pageRows   int

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

// Schema returns the join output schema.
func (hj *HashJoin) Schema() *types.Schema { return hj.outSch }

// Vectorized reports whether both key sets avoid the row-at-a-time
// fallback when computed batch-at-a-time (plan display).
func (hj *HashJoin) Vectorized() bool { return hj.vectorized }

// newKeys builds a worker's key encoder for one side of the join.
func (hj *HashJoin) newKeys(keys []expr.Expr, sch *types.Schema) *expr.BatchKeyEncoder {
	if hj.RowExec {
		return expr.NewRowKeyEncoder(keys, sch)
	}
	return expr.NewBatchKeyEncoder(keys, sch)
}

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
	keys := hj.newKeys(hj.buildKeys, hj.buildSch)
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
// concatenated matches. Probing resident shards is read-only, so no
// locking is needed; rows hashing to spilled shards are deferred to
// per-shard probe files and re-joined after the probe input drains.
func (hj *HashJoin) Next(ctx *Ctx) (*block.Block, Status) {
	w := hj.worker(ctx)
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
	w := &joinWorker{keys: hj.newKeys(hj.probeKeys, hj.probeSch)}
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
			ctx.BroadcastExit()
			return nil, Terminated
		}
		i := hj.spillCur.Add(1) - 1
		if i >= int64(len(hj.shards)) {
			return nil, End
		}
		sh := &hj.shards[i]
		if !sh.spilled {
			continue
		}
		if b := hj.processSpilledShard(ctx, sh); b != nil {
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
	var freed int64
	for i := range hj.shards {
		sh := &hj.shards[i]
		if sh.spilled || sh.bytes == 0 {
			continue
		}
		for _, pg := range sh.pages {
			block.PutBuf(pg)
		}
		freed += sh.bytes
		sh.pages, sh.tab = nil, joinTable{}
		sh.nrows, sh.bytes = 0, 0
	}
	if freed > 0 {
		hj.memTracked.Add(-freed)
		hj.Mem.freeSmall(freed)
	}
}

// processSpilledShard re-joins one spilled shard: rebuild its table
// from the build file, stream the probe file against it, and emit all
// matches as one block. The shard is owned by the claiming worker.
func (hj *HashJoin) processSpilledShard(ctx *Ctx, sh *joinShard) *block.Block {
	build, probes := sh.build, sh.probes
	sh.build, sh.probes = nil, nil
	defer build.drop()
	defer probes.drop()
	if probes == nil || probes.rows == 0 {
		return nil
	}
	stride := hj.buildSch.Stride()
	var tab joinTable
	var pages [][]byte
	var pbytes int64
	nr := 0
	benc := expr.NewKeyEncoder(hj.buildKeys)
	err := build.iterate(func(rec []byte) error {
		if nr == len(pages)*hj.pageRows {
			if !hj.Mem.reserveSmall(int64(hj.pageBytes)) {
				// One shard rebuilds at a time and the resident pages are
				// already freed; over-running here is bounded and soft.
				hj.Mem.forceSmall(int64(hj.pageBytes))
			}
			pages = append(pages, block.GetBuf(hj.pageBytes))
			pbytes += int64(hj.pageBytes)
		}
		copy(pages[nr/hj.pageRows][(nr%hj.pageRows)*stride:], rec)
		key := benc.Encode(rec, hj.buildSch)
		tab.insert(expr.Hash64(key), key)
		nr++
		return nil
	})
	free := func() {
		for _, pg := range pages {
			block.PutBuf(pg)
		}
		hj.Mem.freeSmall(pbytes)
	}
	if err != nil {
		free()
		hj.setSpillErr(err)
		return nil
	}
	out := block.New(hj.outSch, 0, ctx.Tracker)
	penc := expr.NewKeyEncoder(hj.probeKeys)
	err = probes.iterate(func(rec []byte) error {
		key := penc.Encode(rec, hj.probeSch)
		hj.emitMatches(out, &tab, pages, expr.Hash64(key), key, rec)
		return nil
	})
	free()
	if err != nil {
		hj.setSpillErr(err)
	}
	return out
}

// Close implements Iterator. The elastic layer guarantees every worker
// has exited before Close runs, so freeing shared state here is safe.
func (hj *HashJoin) Close() {
	hj.build.Close()
	hj.probe.Close()
	var freed int64
	for i := range hj.shards {
		sh := &hj.shards[i]
		for _, pg := range sh.pages {
			block.PutBuf(pg)
		}
		freed += sh.bytes
		sh.pages, sh.tab = nil, joinTable{}
		sh.nrows, sh.bytes = 0, 0
		sh.build.drop()
		sh.probes.drop()
		sh.build, sh.probes = nil, nil
	}
	if freed > 0 {
		hj.memTracked.Add(-freed)
		hj.Mem.freeSmall(freed)
	}
	hj.Mem.releaseAll()
}
