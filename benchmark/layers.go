package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/iterator"
	"repro/internal/network"
	"repro/internal/plan"
	"repro/internal/session"
	"repro/internal/sql"
	"repro/internal/telemetry"
	"repro/internal/types"
)

// probeSlices is how many equal slices a probe's time is cut into; the
// probe reports the median slice, so one disturbed slice does not move
// the number.
const probeSlices = 5

// probe times fn, which performs some units of work per call and
// returns how many, for about budget. It returns the median over
// slices of nanoseconds and heap allocations per unit.
func probe(budget time.Duration, fn func() (int, error)) (ns, allocs float64, err error) {
	var nss, als []float64
	var ms runtime.MemStats
	for s := 0; s < probeSlices; s++ {
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		units := 0
		t0 := time.Now()
		for units == 0 || time.Since(t0) < budget/probeSlices {
			n, err := fn()
			if err != nil {
				return 0, 0, err
			}
			units += n
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&ms)
		nss = append(nss, float64(el.Nanoseconds())/float64(units))
		als = append(als, float64(ms.Mallocs-m0)/float64(units))
	}
	return median(nss), median(als), nil
}

// layerProbes measures each layer in isolation by calling its exported
// functions from outside, over this workload's own statements and
// data. budget is the time for all probes together.
func (e *env) layerProbes(seed int64, budget time.Duration, m map[string]float64) error {
	const nProbes = 15
	slice := budget / nProbes
	ctx := context.Background()
	c := e.cluster
	next := e.gen.stream(seed, 0)

	// sql: lex+parse and the plan-cache key, over the texts clients send.
	var err error
	if m["sql.parse_ns_op"], m["sql.parse_allocs_op"], err = probe(slice, func() (int, error) {
		_, err := sql.ParseStatement(next().text)
		return 1, err
	}); err != nil {
		return fmt.Errorf("sql.parse: %w", err)
	}
	if m["sql.normalize_ns_op"], _, err = probe(slice, func() (int, error) {
		_, err := sql.Normalize(next().text)
		return 1, err
	}); err != nil {
		return fmt.Errorf("sql.normalize: %w", err)
	}

	// plan: compile parsed statements; bind arguments into a template.
	type compiled struct {
		s   *stmt
		ast *sql.SelectStmt
		p   *plan.Plan
	}
	pre := make([]compiled, 64)
	for i := range pre {
		s := next()
		ast, err := sql.Parse(s.text)
		if err != nil {
			return err
		}
		p, err := plan.CompileStmt(ast, c.Catalog())
		if err != nil {
			return err
		}
		pre[i] = compiled{s, ast, p}
	}
	i := 0
	cycle := func() *compiled { i++; return &pre[i%len(pre)] }
	if m["plan.compile_ns_op"], _, err = probe(slice, func() (int, error) {
		_, err := plan.CompileStmt(cycle().ast, c.Catalog())
		return 1, err
	}); err != nil {
		return fmt.Errorf("plan.compile: %w", err)
	}
	if m["plan.bind_ns_op"], m["plan.bind_allocs_op"], err = probe(slice, func() (int, error) {
		k := cycle()
		b, err := k.p.AcquireBound(k.s.args)
		if err == nil {
			k.p.ReleaseBound(b)
		}
		return 1, err
	}); err != nil {
		return fmt.Errorf("plan.bind: %w", err)
	}

	// engine: run precompiled plans; instantiate and tear down the
	// parallel dataflow for a join that returns nothing.
	if m["engine.run_ns_op"], _, err = probe(slice, func() (int, error) {
		k := cycle()
		_, err := c.RunBound(ctx, k.p, k.s.args, k.s.text)
		return 1, err
	}); err != nil {
		return fmt.Errorf("engine.run: %w", err)
	}
	if m["engine.setup_ns_op"], _, err = probe(slice, func() (int, error) {
		res, err := c.Run(e.w.emptyJoin)
		if err == nil && res.NumRows() != 0 {
			err = fmt.Errorf("%q returned rows", e.w.emptyJoin)
		}
		return 1, err
	}); err != nil {
		return fmt.Errorf("engine.setup: %w", err)
	}

	// session: a whole statement in process, no socket, no admission.
	sess := session.New(session.Direct{C: c})
	if e.w.prepared {
		if _, err := sess.Prepare("lookup", lookupSQL+"$1"); err != nil {
			return err
		}
	}
	if m["session.execute_ns_op"], m["session.execute_allocs_op"], err = probe(slice, func() (int, error) {
		s := next()
		var err error
		if e.w.prepared {
			_, err = sess.Execute(ctx, "lookup", s.args)
		} else {
			_, err = sess.Exec(ctx, s.text)
		}
		return 1, err
	}); err != nil {
		return fmt.Errorf("session.execute: %w", err)
	}

	// server: what admission adds to the same bound execution, on the
	// workload's cheapest statement (the cost does not depend on the
	// statement, and a difference of two long runs would be all noise).
	// The two sides alternate so drift lands on both.
	direct := session.Direct{C: c}
	k := &pre[0]
	if e.w.tpch {
		p, _, err := c.CompileCached(e.w.emptyJoin)
		if err != nil {
			return err
		}
		k = &compiled{s: &stmt{text: e.w.emptyJoin}, p: p}
	}
	var admitted, bare []float64
	for r := 0; r < probeSlices; r++ {
		a, _, err := probe(slice/(2*probeSlices), func() (int, error) {
			_, err := e.srv.QueryBound(ctx, k.p, k.s.args, k.s.text)
			return 1, err
		})
		if err != nil {
			return fmt.Errorf("server.QueryBound: %w", err)
		}
		b, _, err := probe(slice/(2*probeSlices), func() (int, error) {
			_, err := direct.QueryBound(ctx, k.p, k.s.args, k.s.text)
			return 1, err
		})
		if err != nil {
			return fmt.Errorf("direct.QueryBound: %w", err)
		}
		admitted, bare = append(admitted, a), append(bare, b)
	}
	m["server.overhead_ns_op"] = median(admitted) - median(bare)

	// protocol: frame one reply per statement id, per row.
	var replies []*engine.Result
	for id := range e.w.ids {
		for j := range pre {
			if pre[j].s.id == id {
				res, err := c.RunBound(ctx, pre[j].p, pre[j].s.args, pre[j].s.text)
				if err != nil {
					return err
				}
				replies = append(replies, res)
				break
			}
		}
	}
	var scratch []byte
	if m["protocol.encode_ns_row"], _, err = probe(slice, func() (int, error) {
		rows := 0
		for _, res := range replies {
			var err error
			if scratch, err = encodeResult(&countWriter{}, scratch, res); err != nil {
				return 0, err
			}
			rows += res.NumRows() + 1 // +1: an empty reply still frames schema and done
		}
		return rows, nil
	}); err != nil {
		return fmt.Errorf("protocol.encode: %w", err)
	}

	// expr and block kernels over blocks of the workload's main table.
	if err := e.kernelProbes(slice, m); err != nil {
		return err
	}
	return e.analyzeProbe(2*slice, m)
}

// kernelProbes runs the expr predicate and key-hash kernels, the block
// codec and the arena, and the raw TCP fabric over table blocks.
func (e *env) kernelProbes(slice time.Duration, m map[string]float64) error {
	res, err := e.cluster.Run(e.w.probeRows)
	if err != nil {
		return fmt.Errorf("%q: %w", e.w.probeRows, err)
	}
	blocks, sch := res.Blocks, res.Schema
	rows := res.NumRows()
	if rows == 0 {
		return fmt.Errorf("%q returned no rows", e.w.probeRows)
	}
	// The predicate as the planner lowers it onto the scan.
	glue := " WHERE "
	if strings.Contains(e.w.probeRows, glue) {
		glue = " AND "
	}
	p, err := plan.Compile(e.w.probeRows+glue+e.w.probePred, e.cluster.Catalog())
	if err != nil {
		return err
	}
	var pred expr.Expr
	var scanSch *types.Schema
	for _, seg := range p.Segments {
		plan.Walk(seg.Root, func(op plan.PhysOp) {
			if s, ok := op.(*plan.PScan); ok && s.Pred != nil {
				pred, scanSch = s.Pred, s.Sch
			}
		})
	}
	if pred == nil || scanSch.Stride() != sch.Stride() {
		return fmt.Errorf("probe predicate %q was not pushed onto a scan of the probe rows", e.w.probePred)
	}
	bp := expr.CompilePredicate(pred, scanSch)
	sel := make([]int32, 0, 4096)
	if m["expr.predicate_ns_row"], _, err = probe(slice, func() (int, error) {
		for _, b := range blocks {
			sel = bp.Select(b, nil, sel[:0])
		}
		return rows, nil
	}); err != nil {
		return err
	}
	keyCol := -1
	for i, col := range sch.Cols {
		if col.Name == e.w.probeKey || strings.HasSuffix(col.Name, "."+e.w.probeKey) {
			keyCol = i
		}
	}
	if keyCol < 0 {
		return fmt.Errorf("probe key %q not in %v", e.w.probeKey, sch.Cols)
	}
	enc := expr.NewBatchKeyEncoder([]expr.Expr{expr.NewCol(keyCol, e.w.probeKey)}, sch)
	var sink uint64
	if m["expr.keyhash_ns_row"], _, err = probe(slice, func() (int, error) {
		for _, b := range blocks {
			n := enc.EncodeBlock(b, nil)
			for j := 0; j < n; j++ {
				sink ^= enc.Hash(j)
			}
		}
		return rows, nil
	}); err != nil {
		return err
	}
	_ = sink

	var wire int
	for _, b := range blocks {
		wire += b.WireSize()
	}
	var scratch []byte
	encNs, _, err := probe(slice, func() (int, error) {
		for _, b := range blocks {
			scratch = b.EncodeAppend(scratch[:0])
		}
		return wire, nil
	})
	if err != nil {
		return err
	}
	encoded := make([][]byte, len(blocks))
	for i, b := range blocks {
		encoded[i] = b.EncodeAppend(nil)
	}
	decNs, _, err := probe(slice, func() (int, error) {
		for _, buf := range encoded {
			b, err := block.Decode(sch, buf, nil)
			if err != nil {
				return 0, err
			}
			b.Recycle()
		}
		return wire, nil
	})
	if err != nil {
		return err
	}
	// ns per byte -> MB/s
	m["block.encode_mb_s"] = 1e3 / encNs
	m["block.decode_mb_s"] = 1e3 / decNs
	if m["block.arena_get_ns"], _, err = probe(slice, func() (int, error) {
		for j := 0; j < 256; j++ {
			block.PutBuf(block.GetBuf(block.DefaultSize))
		}
		return 256, nil
	}); err != nil {
		return err
	}
	m["network.repartition_mb_s"], err = repartition(blocks, sch, slice)
	return err
}

// repartition drives the raw TCP fabric: two nodes each send the table
// blocks to both for about dur, every block through the wire codec,
// staging and the send window. It returns wire megabytes per second.
func repartition(blocks []*block.Block, sch *types.Schema, dur time.Duration) (float64, error) {
	var nodes []*network.TCPNode
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	for i := 0; i < 2; i++ {
		n, err := network.NewTCPNode(i, "127.0.0.1:0", nil)
		if err != nil {
			return 0, err
		}
		nodes = append(nodes, n)
	}
	for _, n := range nodes {
		for pid, p := range nodes {
			n.SetPeer(pid, p.Addr())
		}
	}
	var ins []*network.Inbox
	var obs []iterator.Outbox
	for i, n := range nodes {
		ins = append(ins, n.RegisterInbox(1, 1, i, 2, sch, 64, nil))
	}
	// The outboxes carry a scope, as the engine's do: with a nil scope
	// the node's stager lookup rewrites the stager's scope field on
	// every send, racing with the coalescing timer's flush.
	sc := telemetry.NewScope("repartition")
	for _, n := range nodes {
		ob := n.NewOutbox(1, 1, []int{0, 1})
		ob.SetScope(sc)
		obs = append(obs, ob)
	}
	var wg sync.WaitGroup
	for _, in := range ins {
		wg.Add(1)
		go func(in *network.Inbox) {
			defer wg.Done()
			for {
				if _, st := in.Recv(nil); st != iterator.RecvOK {
					return
				}
			}
		}(in)
	}
	start := time.Now()
	errs := make([]error, len(obs))
	for i, ob := range obs {
		wg.Add(1)
		go func(i int, ob iterator.Outbox) {
			defer wg.Done()
			for n := 0; time.Since(start) < dur; n++ {
				if err := ob.Send(n%2, blocks[n%len(blocks)]); err != nil {
					errs[i] = err
					break
				}
			}
			if err := ob.CloseSend(); err != nil && errs[i] == nil {
				errs[i] = err
			}
		}(i, ob)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	var bytes int64
	for _, n := range nodes {
		_, _, b, _, _ := n.NetStats()
		bytes += b
	}
	return float64(bytes) / 1e6 / elapsed.Seconds(), nil
}

// analyzeProbe runs every statement id under EXPLAIN ANALYZE and reads
// the operator, elastic and scheduler figures from the scope the engine
// already fills: operator self time by kind, rows per second of
// operator time, worker parallelism, pool expansions, scheduler cost.
func (e *env) analyzeProbe(budget time.Duration, m map[string]float64) error {
	self := map[string]time.Duration{}
	var rows int64
	var busy, sched time.Duration
	var parallelism []float64
	var expands, decisions int64
	runs := 0
	perID := budget / time.Duration(len(e.w.ids))
	for id := range e.w.ids {
		var s *stmt
		for j := range e.gen.stmts {
			if e.gen.stmts[j].id == id {
				s = &e.gen.stmts[j]
				break
			}
		}
		text := s.text
		if e.w.prepared {
			text = lookupSQL + fmt.Sprint(s.args[0].I)
		}
		for t0 := time.Now(); ; {
			sc := telemetry.NewScope("analyze")
			sink := telemetry.NewMemSink(telemetry.KindWorkerExpand)
			sc.Attach(sink)
			res, an, err := e.cluster.ExplainAnalyzeScoped(text, sc)
			if err != nil {
				return fmt.Errorf("explain analyze %q: %w", text, err)
			}
			runs++
			expands += int64(sink.Len())
			decisions += sc.Counter(telemetry.CtrSchedDecisions).Load()
			sched += res.Stats.SchedOverhead
			for _, seg := range an.Plan.Segments {
				if _, mean := an.SegmentWorkers(seg); mean > 0 {
					parallelism = append(parallelism, mean)
				}
				plan.Walk(seg.Root, func(op plan.PhysOp) {
					r, _, b := an.OpStats(op)
					for _, ch := range plan.Children(op) {
						_, _, cb := an.OpStats(ch)
						b -= cb
					}
					if b < 0 {
						b = 0
					}
					rows += r
					busy += b
					switch n := op.(type) {
					case *plan.PFilter:
						self["filter"] += b
					case *plan.PScan:
						if n.Pred != nil {
							self["filter"] += b
						}
					case *plan.PHashAgg:
						self["hashagg"] += b
					case *plan.PHashJoin:
						self["hashjoin"] += b
					case *plan.PMerger:
						self["exchange"] += b
					}
				})
			}
			if time.Since(t0) >= perID {
				break
			}
		}
	}
	n := float64(runs)
	for _, kind := range []string{"filter", "hashagg", "hashjoin", "exchange"} {
		m["iterator.op_self_ms."+kind] = self[kind].Seconds() * 1e3 / n
	}
	if busy > 0 {
		m["iterator.rows_s"] = float64(rows) / busy.Seconds()
	}
	if len(parallelism) > 0 {
		var sum float64
		for _, p := range parallelism {
			sum += p
		}
		m["elastic.mean_parallelism"] = sum / float64(len(parallelism))
	}
	m["elastic.expands_op"] = float64(expands) / n
	m["sched.overhead_ms_op"] = sched.Seconds() * 1e3 / n
	m["sched.decisions_op"] = float64(decisions) / n
	return nil
}
