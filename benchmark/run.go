package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// runConfig is one run of one workload.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	smoke   bool      // small data, one set-up, premises not asserted
	outDir  string    // where the traced run writes its Chrome trace
	report  io.Writer // human-readable report
}

const (
	warmup = 2 * time.Second
	// setUps is how often an end-to-end run sets the system up; setup_s
	// is the median, so that one slow load does not decide it.
	setUps = 3
	// keepWithin decides which rounds of the window count: those whose
	// throughput is within this share of the best round's (see
	// runEndToEnd).
	keepWithin = 0.10
)

func (c *runConfig) sf() float64 {
	if c.smoke {
		return tpchSFSmoke
	}
	return tpchSF
}

func (c *runConfig) window(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// setUp brings the system to where its first statement can be timed:
// build the cluster, load the data, compute the reference replies on a
// second cluster, start the server, dial, PREPARE, and drive every
// connection's statement stream unrecorded for the warm-up (replies are
// still checked), so caches fill and lazy set-up finishes. It does so
// times times, keeps the last system, and returns every set-up's
// duration in seconds.
func setUp(ctx context.Context, cfg *runConfig, times int) (e *env, streams []func() *stmt, secs []float64, err error) {
	dur := warmup
	if cfg.smoke {
		dur /= 10
	}
	for i := 0; i < times; i++ {
		if e != nil {
			e.close()
			runtime.GC()
		}
		t0 := time.Now()
		if e, err = setup(cfg.w, cfg.seed, cfg.sf()); err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		t1 := time.Now()
		streams = e.streams(cfg.seed)
		unrecorded, _ := newRecorders(e.w, 0)
		if _, err = e.driveRound(ctx, streams, unrecorded, dur, nil); err != nil {
			e.close()
			return nil, nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		secs, e.warmDur = append(secs, time.Since(t0).Seconds()), time.Since(t1)
	}
	return e, streams, secs, nil
}

func (e *env) streams(seed int64) []func() *stmt {
	out := make([]func() *stmt, len(e.conns))
	for i := range out {
		out[i] = e.gen.stream(seed, i)
	}
	return out
}

// sampleCap bounds the latency samples kept per connection and
// statement id; no workload completes a third of this rate.
func sampleCap(seconds float64) int { return int(seconds*60_000) + 1000 }

// latency is what latencyStats makes of a set of samples, nanoseconds.
type latency struct {
	p50, tail, p999 float64
	perID           map[string]float64 // median by statement id
	n               int                // samples behind p50 and tail: of the rarest id where they are per id
}

// latencyStats reduces the samples of the given rounds to the median
// and the tail percentile: pooled on the lookup workloads, where an op
// is a statement of any id; the geometric mean over statement ids of
// each id's quantile on the analytic ones, so that the long statements
// do not drown the short.
func latencyStats(w *workload, recs []*recorder, rounds []int) latency {
	l := latency{perID: map[string]float64{}}
	var all []uint32
	var p50s, tails []float64
	for id, name := range w.ids {
		s := pooled(recs, id, rounds)
		if id == 0 || len(s) < l.n {
			l.n = len(s)
		}
		all = append(all, s...)
		sorted := sortedNs(s)
		l.perID[name] = quantile(sorted, 0.5)
		p50s = append(p50s, quantile(sorted, 0.5))
		tails = append(tails, quantile(sorted, w.tail))
	}
	sorted := sortedNs(all)
	l.p999 = quantile(sorted, 0.999)
	if w.tpch {
		l.p50, l.tail = geomean(p50s), geomean(tails)
	} else {
		l.p50, l.tail, l.n = quantile(sorted, 0.5), quantile(sorted, w.tail), len(all)
	}
	return l
}

// runEndToEnd measures the end-to-end metrics with tracing off.
//
// The window is cut into rounds. On the machines this runs on, a busy
// 2-vCPU guest runs at one of two speeds about a third apart and moves
// between them at arbitrary moments, for seconds to minutes, for
// reasons outside it: no steal is reported, a compute-only loop stays
// within 2%, a two-thread memory-streaming loop halves, as if the host
// at times ran both vCPUs on one core. It cannot be divided out. A
// slowed round shows in its throughput: rounds more than keepWithin
// below the best round are set aside, and every timing is taken over
// the others together, the throughput as their mean and the quantiles
// from their pooled samples. These are closed loops, so a stall delays
// only the statements in flight; one that reaches the tail percentile
// recurs in every round and is not what this sets aside. The whole
// window's figures and each round's are printed beside the reported.
func runEndToEnd(ctx context.Context, cfg *runConfig) (*result, error) {
	out, w := cfg.report, cfg.w
	times := setUps
	if cfg.smoke {
		times = 1
	}
	e, streams, setups, err := setUp(ctx, cfg, times)
	if err != nil {
		return nil, err
	}
	defer e.close()
	fmt.Fprintf(out, "workload %s seed %d: set-up %.4f s (median of %.4f), of the last %.4f s warm-up\n",
		w.name, cfg.seed, median(setups), setups, e.warmDur.Seconds())

	roundDur := cfg.window(1 / float64(w.rounds))
	recs, harness := newRecorders(w, sampleCap(cfg.seconds))
	var thr, p50s, tails, heap []float64
	var all []int
	var ms runtime.MemStats
	for r := 0; r < w.rounds; r++ {
		for _, rec := range recs {
			rec.nextRound()
		}
		t, err := e.driveRound(ctx, streams, recs, roundDur, nil)
		if err != nil {
			return nil, err
		}
		l := latencyStats(w, recs, []int{r})
		thr, p50s, tails, all = append(thr, t), append(p50s, l.p50/1e3), append(tails, l.tail/1e3), append(all, r)
		// The connections are idle between rounds, so what survives a
		// forced collection is what the system retains, not a statement
		// in flight; the second collection empties the sync.Pool victim
		// caches, whose contents depend on when the last cycle ran. The
		// sample arrays are the harness's, not the system's.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		heap = append(heap, float64(int64(ms.HeapAlloc)-harness)/(1<<20))
	}
	var kept []int
	var keptThr []float64
	for r, t := range thr {
		if t >= (1-keepWithin)*slices.Max(thr) {
			kept, keptThr = append(kept, r), append(keptThr, t)
		}
	}
	reported, whole := latencyStats(w, recs, kept), latencyStats(w, recs, all)
	attempted, failed := counts(recs)

	fmt.Fprintf(out, "  %d rounds of %v, by round: throughput (ops/s) %.1f\n    p50 (us) %.1f\n    %s (us) %.1f\n",
		w.rounds, roundDur, thr, p50s, w.tailName, tails)
	fmt.Fprintf(out, "  noise (IQR/median over rounds): throughput %.2f%%  p50 %.2f%%  %s %.2f%%\n",
		100*iqrShare(thr), 100*iqrShare(p50s), w.tailName, 100*iqrShare(tails))
	fmt.Fprintf(out, "  whole window: throughput %.1f ops/s  p50 %.1f us  %s %.1f us  (n=%d)\n",
		mean(thr), whole.p50/1e3, w.tailName, whole.tail/1e3, whole.n)
	fmt.Fprintf(out, "  rounds %v are within %.0f%% of the best and are the ones reported (n=%d", kept, 100*keepWithin, reported.n)
	if beyond := float64(reported.n) * (1 - w.tail); beyond < 10 {
		fmt.Fprintf(out, "; only %.1f samples beyond %s", beyond, w.tailName)
	}
	fmt.Fprintln(out, ")")
	for id, name := range w.ids {
		fmt.Fprintf(out, "  %-10s n=%d of %d\n", name, len(pooled(recs, id, kept)), len(pooled(recs, id, all)))
	}
	m := map[string]float64{
		"setup_s":          median(setups),
		"throughput_ops_s": mean(keptThr),
		"latency_p50_us":   reported.p50 / 1e3,
		"latency_tail_us":  reported.tail / 1e3,
		"heap_live_mb":     slices.Max(heap),
	}
	fmt.Fprintf(out, "  fail_ratio %.6f (%d of %d)\n", float64(failed)/float64(attempted), failed, attempted)
	res, err := newResult(endToEnd, m)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed, res.Correct = attempted, failed, failed == 0
	printMetrics(out, endToEnd, res)
	return res, nil
}

func printMetrics(out io.Writer, defs []metricDef, res *result) {
	for _, d := range defs {
		fmt.Fprintf(out, "  %-34s %16.4f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
}

// processCounters reads the runtime's cumulative allocation and
// collector figures, for deltas over a window.
type processCounters struct {
	mallocs       uint64
	pauseNs       uint64
	gcCPU, allCPU float64
}

func readProcess() processCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return processCounters{ms.Mallocs, ms.PauseTotalNs, s[0].Value.Float64(), s[1].Value.Float64()}
}

// runTraced produces the per-layer metrics: an untraced window for the
// baseline, a traced window in which sampled statements carry spans and
// are replayed layer by layer in process, then each layer probed alone.
func runTraced(ctx context.Context, cfg *runConfig) (*result, error) {
	out := cfg.report
	w := cfg.w
	e, streams, setups, err := setUp(ctx, cfg, 1)
	if err != nil {
		return nil, err
	}
	defer e.close()
	fmt.Fprintf(out, "workload %s seed %d traced: set-up %.3f s, of it %.3f s warm-up\n", w.name, cfg.seed, setups[0], e.warmDur.Seconds())
	m := map[string]float64{"storage.load_rows_s": float64(e.loadRows) / e.loadDur.Seconds()}

	// Untraced window: the baseline the tracing overhead is judged
	// against, and the process-wide allocation and collector figures.
	plain, _ := newRecorders(w, sampleCap(cfg.seconds))
	for _, rec := range plain {
		rec.nextRound()
	}
	before := readProcess()
	t0 := time.Now()
	plainThr, err := e.driveRound(ctx, streams, plain, cfg.window(0.25), nil)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(t0)
	after := readProcess()
	attempted, failed := counts(plain)
	m["runtime.allocs_op"] = float64(after.mallocs-before.mallocs) / float64(attempted)
	m["runtime.gc_pause_ms"] = float64(after.pauseNs-before.pauseNs) / 1e6 / elapsed.Seconds()
	m["runtime.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / (after.allCPU - before.allCPU)
	l := latencyStats(w, plain, []int{0})
	m["client.latency_p999_us"] = l.p999 / 1e3
	for _, id := range analyticIDs {
		m["client.stmt_p50_ms."+id] = l.perID[id] / 1e6 // 0 for an id this workload does not run
	}

	// Traced window. The registry makes the engine's own counters (fast
	// path, plan cache, protocol requests) move; it stays off otherwise.
	tr, err := newTracedRun(e)
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry(false)
	telemetry.SetDefaultRegistry(reg)
	cache0 := e.cluster.PlanCacheStats()
	queuedPeak := e.pollQueue(ctx)
	traced, _ := newRecorders(w, sampleCap(cfg.seconds))
	tracedThr, err := e.driveRound(ctx, streams, traced, cfg.window(0.25), tr)
	peak := queuedPeak()
	telemetry.SetDefaultRegistry(nil)
	if err != nil {
		return nil, err
	}
	cache1 := e.cluster.PlanCacheStats()
	a2, f2 := counts(traced)
	attempted, failed = attempted+a2, failed+f2
	statements := a2 + tr.replays
	m["telemetry.trace_overhead_ratio"] = tracedThr / plainThr
	m["engine.fastpath_ratio"] = float64(reg.Counter(telemetry.CtrFastPathQueries).Load()) / float64(statements)
	m["plan.cache_hit_ratio"] = 0 // no look-ups: EXECUTE never consults the cache
	if looks := (cache1.Hits - cache0.Hits) + (cache1.Misses - cache0.Misses); looks > 0 {
		m["plan.cache_hit_ratio"] = float64(cache1.Hits-cache0.Hits) / float64(looks)
	}
	m["server.queued_peak"] = float64(peak)
	if tr.replays == 0 {
		return nil, fmt.Errorf("traced window of %v replayed no statement", cfg.window(0.25))
	}
	n := float64(tr.replays)
	m["protocol.socket_us_op"] = median(tr.socket) / 1e3
	m["protocol.bytes_op"] = float64(tr.wireBytes) / n
	m["client.first_row_us"] = median(tr.firstRow) / 1e3
	m["network.bytes_op"] = float64(tr.net.bytes) / n
	m["network.frames_per_batch"] = 0 // no batch was written: nothing crossed a socket
	if tr.net.batches > 0 {
		m["network.frames_per_batch"] = float64(tr.net.frames) / float64(tr.net.batches)
	}
	m["network.stall_ms_op"] = float64(tr.net.stallNs) / 1e6 / n
	m["network.retries"] = float64(tr.net.retries)
	fmt.Fprintf(out, "  untraced %.1f ops/s, traced %.1f ops/s\n", plainThr, tracedThr)
	tr.layerShares(out)
	tracePath := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
	if err := tr.t.writeChrome(tracePath); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(out, "  trace written to %s\n", tracePath)

	if err := e.layerProbes(cfg.seed, cfg.window(0.5), m); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	res, err := newResult(perLayer, m)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed, res.Correct = attempted, failed, failed == 0
	printMetrics(out, sortedDefs(perLayer), res)
	if !cfg.smoke {
		for _, broken := range premises(w, m) {
			fmt.Fprintf(out, "  PREMISE BROKEN: %s\n", broken)
			res.Correct = false
		}
	}
	return res, nil
}

func sortedDefs(defs []metricDef) []metricDef {
	s := append([]metricDef(nil), defs...)
	sort.Slice(s, func(i, j int) bool { return s[i].Name < s[j].Name })
	return s
}

// pollQueue samples the admission queue depth until the returned
// function is called, which stops the poller and returns the peak.
func (e *env) pollQueue(ctx context.Context) func() int {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	peak := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ctx.Done():
				return
			case <-tick.C:
				if _, q := e.srv.Stats(); q > peak {
					peak = q
				}
			}
		}
	}()
	return func() int {
		close(stop)
		wg.Wait()
		return peak
	}
}

// premises checks that the workload stresses what it claims to, from
// the traced run's own counters. A broken premise means later numbers
// from this workload no longer mean what its description says.
func premises(w *workload, m map[string]float64) (broken []string) {
	expect := func(ok bool, format string, args ...any) {
		if !ok {
			broken = append(broken, fmt.Sprintf(format, args...))
		}
	}
	fast, hit := m["engine.fastpath_ratio"], m["plan.cache_hit_ratio"]
	switch {
	case w.name == "lookup_prepared":
		expect(fast >= 0.99, "engine.fastpath_ratio %.3f < 0.99: prepared lookups left the serial fast path", fast)
	case w.name == "adhoc_text":
		expect(hit < 0.2, "plan.cache_hit_ratio %.3f >= 0.2: the statement pool no longer thrashes the plan cache", hit)
	case w.tpch:
		expect(fast == 0, "engine.fastpath_ratio %.3f != 0: an analytic statement took the serial fast path", fast)
	}
	if w.tpch && !w.tcp {
		// Gathers of partial aggregates only; a repartitioned lineitem
		// would be three orders of magnitude more (checked against
		// join_repartition_tcp's figure when all workloads run).
		expect(m["network.bytes_op"] < 1<<20, "network.bytes_op %.0f: the scan workload is moving table data", m["network.bytes_op"])
	}
	expect(m["network.retries"] == 0, "network.retries %.0f != 0", m["network.retries"])
	return broken
}
