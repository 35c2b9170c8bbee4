package bench

import (
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/elastic"
	"repro/internal/expr"
	"repro/internal/iterator"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/sse"
	"repro/internal/storage"
	"repro/internal/types"
)

// paperCluster is the paper's testbed (Section 5.1, Table 3): 10 nodes,
// 2×6 physical cores (24 logical), Gigabit Ethernet.
func paperCluster() sim.Cluster {
	return sim.Cluster{Nodes: 10, Cores: 12, HTCores: 24, NetBps: 125e6,
		MemBps: 8e9, Quantum: 5 * time.Millisecond}
}

// sseRows is the per-table cardinality of the SSE dataset (Section 5.1).
const sseRows = 840_000_000

// Figure8 regenerates the operator-scalability study: speedup of
// filter (S-Q1 compute-bound, S-Q2 data-bound), hash aggregation (S-Q3
// group-by cardinality 4, S-Q4 cardinality 250M; shared vs independent
// algorithms), and hash join (build and probe phases) as intra-segment
// parallelism grows from 1 to 24.
//
// The curves derive from the simulator's service-rate law — compute
// scaling with a hyper-threading knee at 12 cores, a shared
// memory-bandwidth ceiling, and an Amdahl-style contention ceiling for
// shared hash tables — with the simulator's per-tuple costs, which
// model the paper's interpreted operators rather than this engine's.
func Figure8() *Report {
	r := &Report{Title: "Figure 8: scalability of intra-segment parallelism (speedup vs p)"}
	c := paperCluster()

	type opCase struct {
		name     string
		cost     float64 // ns/tuple at p=1
		memBytes float64 // bytes of memory traffic per tuple
		critFrac float64 // shared-structure contention fraction
	}
	cases := []opCase{
		// S-Q1: double-wildcard NOT LIKE — compute-dominated.
		{"S-Q1 filter (LIKE)", 560, 64, 0},
		// S-Q2: date comparison — memory-bandwidth-dominated, the
		// paper's plateau at ~8 cores.
		{"S-Q2 filter (date)", 110, 110, 0},
		// S-Q3 group-by cardinality 4: shared table serializes ~20% of
		// the per-tuple work; independent tables do not contend.
		{"S-Q3 agg shared", 460, 72, 0.18},
		{"S-Q3 agg independent", 460, 72, 0},
		// S-Q4 cardinality 250M: contention is negligible either way.
		{"S-Q4 agg shared", 460, 96, 0.005},
		{"S-Q4 agg independent", 460, 96, 0},
		// S-Q5: lock-free-style sharded join table.
		{"S-Q5 join build", 560, 96, 0.01},
		{"S-Q5 join probe", 560, 80, 0},
	}
	ps := []int{1, 2, 4, 8, 12, 16, 20, 24}
	header := "operator                "
	for _, p := range ps {
		header += fmt.Sprintf("%7s", fmt.Sprintf("p=%d", p))
	}
	r.Rows = append(r.Rows, header)
	for _, oc := range cases {
		st := &sim.Stage{CostPerTuple: oc.cost * 1e-9,
			MemBytesPerTuple: oc.memBytes, CritFrac: oc.critFrac}
		base := rateWithMem(&c, st, 1)
		row := fmt.Sprintf("%-24s", oc.name)
		for _, p := range ps {
			row += fmt.Sprintf("%7.1f", rateWithMem(&c, st, p)/base)
		}
		r.Rows = append(r.Rows, row)
	}
	r.notef("speedup normalized to p=1; HT knee at 12 physical cores;" +
		" S-Q2 plateaus on the shared memory-bandwidth ceiling;" +
		" S-Q3 shared flattens on hash-table contention (cf. paper Fig. 8)")
	return r
}

// rateWithMem applies the node memory-bandwidth ceiling to the service
// rate (single segment alone on the node, as in the paper's
// micro-benchmark).
func rateWithMem(c *sim.Cluster, st *sim.Stage, p int) float64 {
	r := c.Rate(st, float64(p))
	if st.MemBytesPerTuple > 0 {
		memCap := c.MemBps / st.MemBytesPerTuple
		if r > memCap {
			r = memCap
		}
	}
	return r
}

// Figure9 measures expansion and shrinkage delays on the REAL elastic
// iterators: expansion = Expand() call to the worker's first productive
// action; shrinkage = termination request to complete worker exit, as a
// function of segment composition (Section 5.2).
func Figure9() *Report {
	r := &Report{Title: "Figure 9: overhead of expansion and shrinkage (real engine)"}

	// (a) expansion delay vs number of iterators in the segment.
	r.Rows = append(r.Rows, "(a) expansion delay vs #iterators")
	for nIters := 1; nIters <= 5; nIters++ {
		d := measureExpand(nIters)
		r.addf("  %d iterators: %8.3f ms (avg of 20)", nIters, d.Seconds()*1e3)
	}

	// (b) shrinkage delay vs segment composition.
	r.Rows = append(r.Rows, "(b) shrinkage delay by segment composition")
	comps := []struct {
		name  string
		joins int
		agg   bool
	}{
		{"scan-filter", 0, false},
		{"scan-filter-join", 1, false},
		{"scan-filter-agg", 0, true},
		{"scan-filter-join-agg", 1, true},
		{"scan-filter-join-join-agg", 2, true},
		{"scan-filter-join-join-join-agg", 3, true},
	}
	for _, comp := range comps {
		d := measureShrink(comp.joins, comp.agg)
		r.addf("  %-32s %8.3f ms (avg of 10)", comp.name, d.Seconds()*1e3)
	}
	r.notef("expansion stays sub-millisecond and nearly composition-independent;" +
		" shrinkage grows with the work pending in the active stage (cf. paper Fig. 9)")
	return r
}

var fig9Sch = types.NewSchema(types.Col("k", types.Int64), types.Col("v", types.Int64))

func fig9Partition(rows int) *storage.Partition {
	p := new(storage.Store).CreatePartition("t", fig9Sch)
	l := storage.NewLoader(p, 32*1024)
	rec := make([]byte, fig9Sch.Stride())
	for i := 0; i < rows; i++ {
		types.PutValue(rec, fig9Sch, 0, types.IntVal(int64(i%1000)))
		types.PutValue(rec, fig9Sch, 1, types.IntVal(int64(i)))
		l.Append(rec)
	}
	l.Close()
	return p
}

func filterChain(depth int, rows int) iterator.Iterator {
	var it iterator.Iterator = iterator.NewScan(fig9Sch, fig9Partition(rows))
	for i := 0; i < depth; i++ {
		it = iterator.NewFilter(it, fig9Sch,
			expr.NewCmp(expr.GE, expr.NewCol(1, "v"), expr.NewConst(types.IntVal(-1))))
	}
	return it
}

func measureExpand(nIters int) time.Duration {
	const trials = 20
	var total time.Duration
	for t := 0; t < trials; t++ {
		el := elastic.New(filterChain(nIters-1, 200_000), elastic.Config{BufferCap: 512})
		el.Expand()
		done := make(chan struct{})
		go func() {
			ctx := &iterator.Ctx{Term: &iterator.TermFlag{}}
			for {
				if _, st := el.Next(ctx); st != iterator.OK {
					close(done)
					return
				}
			}
		}()
		time.Sleep(200 * time.Microsecond)
		el.Expand()
		<-done
		for _, d := range el.ExpandDelays()[1:] {
			total += d
		}
		el.Close()
	}
	return total / time.Duration(trials)
}

func measureShrink(joins int, agg bool) time.Duration {
	const trials = 10
	var total time.Duration
	n := 0
	for t := 0; t < trials; t++ {
		var it iterator.Iterator = filterChain(1, 400_000)
		for j := 0; j < joins; j++ {
			build := iterator.NewScan(fig9Sch, fig9Partition(2_000))
			it = iterator.NewHashJoin(build, it, fig9Sch, fig9Sch,
				[]expr.Expr{expr.NewCol(0, "k")}, []expr.Expr{expr.NewCol(0, "k")})
		}
		if agg {
			it = iterator.NewHashAgg(it, it.(interface{ Schema() *types.Schema }).Schema(),
				[]expr.Expr{expr.NewCol(0, "k")}, []string{"k"},
				[]iterator.AggSpec{{Func: iterator.Count, Name: "c"}},
				iterator.HybridAgg)
		}
		el := elastic.New(it, elastic.Config{BufferCap: 512})
		el.Expand()
		el.Expand()
		go func() {
			ctx := &iterator.Ctx{Term: &iterator.TermFlag{}}
			for {
				if _, st := el.Next(ctx); st != iterator.OK {
					return
				}
			}
		}()
		time.Sleep(2 * time.Millisecond) // let workers enter the chain
		if ch := el.Shrink(); ch != nil {
			select {
			case d := <-ch:
				total += d
				n++
			case <-time.After(5 * time.Second):
			}
		}
		el.Close()
	}
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}

// sseQ9Graph compiles SSE-Q9 through the real planner at paper scale.
func sseQ9Graph() (*sim.Graph, error) {
	cat := catalog.New(10)
	sse.RegisterTables(cat, sseRows)
	p, err := plan.Compile(sse.Queries["SSE-Q9"], cat)
	if err != nil {
		return nil, err
	}
	return sim.Compile(p, cat, 10)
}

// traceReport renders a parallelism trace as a time series table.
func traceReport(r *Report, m *sim.Metrics, every time.Duration) {
	r.addf("%8s %4s %4s %4s", "t(s)", "S1", "S2", "S3")
	last := -every
	for _, tr := range m.Trace {
		if tr.At-last < every {
			continue
		}
		last = tr.At
		r.addf("%8.1f %4d %4d %4d", tr.At.Seconds(),
			tr.Parallelism["S0"], tr.Parallelism["S1"], tr.Parallelism["S2"])
	}
}

// Figure10 traces per-segment parallelism of SSE-Q9 under the dynamic
// scheduler (Section 5.3): S1 expands first, hands off to S2 as the
// hash build becomes the bottleneck, the network caps both, then P2
// shifts cores to S2/S3.
func Figure10() (*Report, error) {
	r := &Report{Title: "Figure 10: parallelism dynamics of elastic pipelining on SSE-Q9"}
	g, err := sseQ9Graph()
	if err != nil {
		return nil, err
	}
	s, err := sim.New(paperCluster(), g, &sim.EPPolicy{Tick: 100 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	s.TraceEvery = 100 * time.Millisecond
	m, err := s.Run()
	if err != nil {
		return nil, err
	}
	r.notef("response time %.1fs, CPU util %.0f%%, network %.1f GB",
		m.Elapsed.Seconds(), 100*m.CPUUtilization(), m.NetBytes/1e9)
	traceReport(r, m, m.Elapsed/24)
	return r, nil
}

// Figure11 repeats SSE-Q9 with Trades partitions sorted by trade_date:
// filter selectivity is 0 for the long prefix, then bursts to 1. The
// scheduler shrinks the starved S2 and expands S1 early, then flips
// when the burst arrives (Section 5.3).
func Figure11() (*Report, error) {
	r := &Report{Title: "Figure 11: adaptivity to selectivity fluctuation (sorted trade_date)"}
	g, err := sseQ9Graph()
	if err != nil {
		return nil, err
	}
	// Sorted layout: the scan's filter passes nothing until the final
	// 1/60 of the input, then everything.
	s1 := &g.Groups[0].Stages[len(g.Groups[0].Stages)-1]
	s1.SelProfile = func(prog float64) float64 {
		if prog < 59.0/60 {
			return 0
		}
		return 1
	}
	s, err := sim.New(paperCluster(), g, &sim.EPPolicy{Tick: 100 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	s.TraceEvery = 100 * time.Millisecond
	m, err := s.Run()
	if err != nil {
		return nil, err
	}
	r.notef("response time %.1fs; selectivity jumps 0→1 at 59/60 of the scan",
		m.Elapsed.Seconds())
	traceReport(r, m, m.Elapsed/24)
	return r, nil
}

// figure12Interference is the cores Figure 12's interfering program
// claims at virtual time now. The paper's interference runs 20s of
// every 40s on a ~160s query; our simulated query is ~20x shorter, so
// the duty cycle scales to 2s-on / 2s-off to show several adaptation
// rounds.
func figure12Interference(now time.Duration) float64 {
	if int(now.Seconds())%4 < 2 {
		return 20 // interference claims 20 of 24 logical cores
	}
	return 0
}

// Figure12 runs SSE-Q9 while a CPU-intensive interference program
// claims most cores on a duty cycle (figure12Interference); the
// scheduler must shrink while it runs and re-expand when it pauses
// (Section 5.3).
func Figure12() (*Report, error) {
	r := &Report{Title: "Figure 12: adaptivity to an interfering CPU-bound program"}
	g, err := sseQ9Graph()
	if err != nil {
		return nil, err
	}
	s, err := sim.New(paperCluster(), g, &sim.EPPolicy{Tick: 100 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	s.TraceEvery = 100 * time.Millisecond
	s.ExternalCores = figure12Interference
	m, err := s.Run()
	if err != nil {
		return nil, err
	}
	r.notef("interference active 2s of every 4s (scaled duty cycle); response time %.1fs",
		m.Elapsed.Seconds())
	traceReport(r, m, m.Elapsed/24)
	return r, nil
}

// Figure13 sweeps the initial intra-segment parallelism 1..12 and
// reports response time and convergence delay: the time until the
// scheduler last materially changed the allocation during the first
// pipeline (Section 5.3 — robustness to the initial assignment).
func Figure13() (*Report, error) {
	r := &Report{Title: "Figure 13: robustness to initial parallelism (SSE-Q9)"}
	r.addf("%8s %14s %18s", "init p", "response (s)", "convergence (s)")
	for p0 := 1; p0 <= 12; p0++ {
		g, err := sseQ9Graph()
		if err != nil {
			return nil, err
		}
		s, err := sim.New(paperCluster(), g,
			&sim.EPPolicy{Tick: 100 * time.Millisecond, InitialP: p0})
		if err != nil {
			return nil, err
		}
		s.TraceEvery = 100 * time.Millisecond
		m, err := s.Run()
		if err != nil {
			return nil, err
		}
		r.addf("%8d %14.1f %18.1f", p0, m.Elapsed.Seconds(),
			convergenceDelay(m).Seconds())
	}
	r.notef("response time is nearly flat across initial assignments — the" +
		" self-tuning property (cf. paper Fig. 13)")
	return r, nil
}

// convergenceDelay estimates how long the scheduler took to settle: the
// first time the cluster-wide allocation reaches 90% of its steady
// maximum.
func convergenceDelay(m *sim.Metrics) time.Duration {
	if len(m.Trace) == 0 {
		return 0
	}
	totals := make([]int, len(m.Trace))
	maxTotal := 0
	for i, tr := range m.Trace {
		for _, p := range tr.Parallelism {
			totals[i] += p
		}
		if totals[i] > maxTotal {
			maxTotal = totals[i]
		}
	}
	for i, tot := range totals {
		if float64(tot) >= 0.9*float64(maxTotal) {
			return m.Trace[i].At
		}
	}
	return m.Trace[len(m.Trace)-1].At
}
