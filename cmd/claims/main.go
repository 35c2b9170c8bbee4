// Command claims is an interactive SQL shell over an in-process
// elastic-pipelining cluster: it boots k virtual nodes, loads a chosen
// workload (TPC-H or SSE), and executes queries under the EP, SP or ME
// execution mode.
//
//	claims -workload tpch -sf 0.01 -nodes 4 -mode EP
//	claims -workload sse -rows 200000 -q "SELECT count(*) FROM trades"
//	claims -workload sse -serve 4 < queries.sql
//
// With -serve N, statements stream from stdin and up to N execute
// concurrently through the admission-controlled front end
// (internal/server); excess queries wait FIFO up to -admit-timeout.
//
// With -telemetry, a running one-line summary of the telemetry stream
// (event counts per kind plus scheduler-decision reasons) prints to
// stderr every given period; \telemetry shows it on demand.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/catalog"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/sse"
	"repro/internal/telemetry"
	"repro/internal/tpch"
)

func main() {
	var (
		workload = flag.String("workload", "tpch", "tpch | sse")
		sf       = flag.Float64("sf", 0.01, "TPC-H scale factor")
		rows     = flag.Int("rows", 100_000, "SSE rows per table")
		nodes    = flag.Int("nodes", 4, "slave nodes")
		cores    = flag.Int("cores", 4, "cores per node")
		mode     = flag.String("mode", "EP", "EP | SP | ME")
		par      = flag.Int("p", 2, "fixed parallelism for SP/ME")
		netBps   = flag.Float64("net", 0, "NIC bytes/sec per node (0 = unlimited)")
		query    = flag.String("q", "", "run one query and exit")
		telem    = flag.Duration("telemetry", 0,
			"print a periodic telemetry summary to stderr every period (0 = off)")
		faultSpec = flag.String("faults", "",
			"inject faults, e.g. drop=0.01,delay=5ms,seed=7 (see internal/faults)")
		rowExec = flag.Bool("rowexec", false,
			"force row-at-a-time expression evaluation (disable batch kernels)")
		httpAddr = flag.String("http", "",
			"serve the observability HTTP API on this address, e.g. :8080 "+
				"(/metrics, /queries, /queries/<id>/trace, /debug/pprof/)")
		serve = flag.Int("serve", 0,
			"concurrent SQL mode: read ';'-terminated statements from stdin and "+
				"execute up to N at once through the admission-controlled front "+
				"end (0 = interactive shell)")
		admitTimeout = flag.Duration("admit-timeout", 30*time.Second,
			"-serve: max time a query waits in the admission queue")
		memPerNode = flag.String("mem", "",
			"per-node memory budget for query working state, e.g. 512MB or "+
				"64KB (empty = unlimited); over-budget operators degrade "+
				"through refused expansions, pool shrinks, then spill to disk")
		spillDir = flag.String("spill-dir", "",
			"directory for operator spill files (default: system temp dir)")
		slowlogMS = flag.Int("slowlog-ms", -1,
			"log queries slower than this to stderr as JSONL (0 logs all, -1 disables)")
		fastPath = flag.Bool("fastpath", false,
			"serial fast path for small gather-only queries (the high-QPS serving mode)")
		listenAddr = flag.String("listen", "",
			"serve the streaming client protocol on this TCP address, e.g. :7654; "+
				"queries admit through the same front end as -serve")
		connectAddr = flag.String("connect", "",
			"connect to a -listen server as a client REPL instead of booting a cluster")
	)
	flag.Parse()

	if *connectAddr != "" {
		runClient(*connectAddr)
		return
	}

	if *httpAddr != "" {
		// The registry captures spans, so every query run while the
		// server is up is fully traced and its per-operator counters are
		// live on /metrics.
		reg := telemetry.NewRegistry(true)
		telemetry.SetDefaultRegistry(reg)
		srv, err := obs.Serve(*httpAddr, reg)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "observability HTTP on http://%s (/metrics /queries /debug/pprof/)\n", srv.Addr())
	}

	if *slowlogMS >= 0 {
		// The slow-query log lives on the process registry; create one if
		// -http did not already.
		reg := telemetry.DefaultRegistry()
		if reg == nil {
			reg = telemetry.NewRegistry(false)
			telemetry.SetDefaultRegistry(reg)
		}
		reg.SetSlowLog(time.Duration(*slowlogMS)*time.Millisecond, os.Stderr)
	}

	if *faultSpec != "" {
		fc, err := faults.Parse(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "claims: -faults: %v\n", err)
			os.Exit(2)
		}
		faults.SetDefault(faults.New(fc))
		fmt.Fprintf(os.Stderr, "fault injection on: %s\n", fc.String())
	}

	var summary *telemetry.SummarySink
	if *telem > 0 {
		summary = telemetry.NewSummarySink(os.Stderr, *telem)
		telemetry.AttachDefault(summary)
		defer summary.Flush()
	}

	m, err := engine.ParseMode(*mode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "claims: %v\n", err)
		os.Exit(2)
	}

	cat := catalog.New(*nodes)
	memBudget, err := parseByteSize(*memPerNode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "claims: -mem: %v\n", err)
		os.Exit(2)
	}
	if *spillDir != "" {
		// Operators fall back to unbudgeted in-memory state when the
		// spill directory is unusable; surface that at startup instead.
		if err := os.MkdirAll(*spillDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "claims: -spill-dir: %v\n", err)
			os.Exit(2)
		}
	}
	c := engine.NewCluster(engine.Config{
		Nodes:            *nodes,
		CoresPerNode:     *cores,
		Mode:             m,
		FixedParallelism: *par,
		NetBytesPerSec:   *netBps,
		RowExec:          *rowExec,
		MemoryPerNode:    memBudget,
		SpillDir:         *spillDir,
		FastPath:         *fastPath,
	}, cat)

	fmt.Printf("loading %s workload onto %d nodes...\n", *workload, *nodes)
	start := time.Now()
	switch *workload {
	case "tpch":
		tpch.RegisterTables(cat, *sf)
		if err := tpch.Load(c, *sf, 1); err != nil {
			fatal(err)
		}
	case "sse":
		sse.RegisterTables(cat, int64(*rows))
		if err := sse.Load(c, sse.GenConfig{Rows: *rows, Seed: 1}); err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintf(os.Stderr, "claims: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	fmt.Printf("loaded in %v; tables: %s\n", time.Since(start).Round(time.Millisecond),
		strings.Join(cat.Names(), ", "))

	if *query != "" {
		runQuery(c, *query)
		return
	}

	if *listenAddr != "" {
		runListen(c, *listenAddr, *serve, *admitTimeout)
		return
	}

	if *serve > 0 {
		runServe(c, *serve, *admitTimeout)
		return
	}

	fmt.Println(`type SQL terminated by ';' — EXPLAIN [ANALYZE] <query> shows the (measured) plan; \q quits, \mode shows the execution mode, \telemetry the event summary`)
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	fmt.Print("claims> ")
	for scanner.Scan() {
		line := scanner.Text()
		switch strings.TrimSpace(line) {
		case `\q`, "exit", "quit":
			return
		case `\mode`:
			fmt.Printf("%s\n", c.Config().Mode)
			fmt.Print("claims> ")
			continue
		case `\telemetry`:
			if summary != nil {
				fmt.Println(summary.Summary())
			} else {
				fmt.Println("telemetry summarizer off — start with -telemetry <period>")
			}
			fmt.Print("claims> ")
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.Contains(line, ";") {
			runQuery(c, buf.String())
			buf.Reset()
			fmt.Print("claims> ")
		}
	}
}

// runServe is the concurrent SQL mode: every ';'-terminated statement
// on stdin is dispatched immediately through the admission-controlled
// front end — up to maxInflight execute at once, the rest queue FIFO —
// and results print tagged with the statement number as each query
// completes (so output order is completion order, not submission
// order).
func runServe(c *engine.Cluster, maxInflight int, admitTimeout time.Duration) {
	srv := server.New(c, server.Config{
		MaxInflight:  maxInflight,
		QueueTimeout: admitTimeout,
	})
	fmt.Printf("serving: up to %d concurrent queries, admission timeout %v; ';' terminates each statement\n",
		maxInflight, admitTimeout)
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var (
		wg  sync.WaitGroup
		out sync.Mutex // one query's result block prints atomically
		n   int
		buf strings.Builder
	)
	// Completion latencies (success and failure alike) feed a mergeable
	// histogram; the run ends with its p50/p95/p99 summary line.
	hist := telemetry.NewHistogram(telemetry.LatencyBuckets)
	for scanner.Scan() {
		buf.WriteString(scanner.Text())
		buf.WriteByte('\n')
		if !strings.Contains(scanner.Text(), ";") {
			continue
		}
		stmt := strings.TrimSuffix(strings.TrimSpace(buf.String()), ";")
		buf.Reset()
		if stmt == "" {
			continue
		}
		n++
		id := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			res, err := srv.Query(context.Background(), stmt)
			hist.Observe(time.Since(t0).Seconds())
			out.Lock()
			defer out.Unlock()
			if err != nil {
				fmt.Fprintf(os.Stderr, "[q%d] error: %v\n", id, err)
				return
			}
			inflight, queued := srv.Stats()
			fmt.Printf("[q%d] %d rows in %v (inflight %d, queued %d)\n",
				id, res.NumRows(), time.Since(t0).Round(time.Millisecond),
				inflight, queued)
		}()
	}
	wg.Wait()
	fmt.Printf("served %d queries; %s\n", n, hist.Snapshot().SummaryLine())
}

// runListen serves the streaming client protocol: every connection is
// one session (its own prepared statements), every query admits through
// the bounded front end. Runs until interrupted.
func runListen(c *engine.Cluster, addr string, maxInflight int, admitTimeout time.Duration) {
	if maxInflight <= 0 {
		maxInflight = 4
	}
	backend := server.New(c, server.Config{
		MaxInflight:  maxInflight,
		QueueTimeout: admitTimeout,
	})
	srv, err := protocol.Serve(addr, backend)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("client protocol on %s (up to %d concurrent queries, admission timeout %v); ctrl-c stops\n",
		srv.Addr(), maxInflight, admitTimeout)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	srv.Close()
}

// runClient is the wire-protocol REPL: ';'-terminated statements from
// stdin go to a -listen server, results stream back. PREPARE / EXECUTE
// / DEALLOCATE work textually — the server session handles them.
func runClient(addr string) {
	conn, err := client.Dial(addr)
	if err != nil {
		fatal(err)
	}
	defer conn.Close()
	fmt.Printf("connected to %s; type SQL terminated by ';' — PREPARE/EXECUTE/DEALLOCATE are session statements; \\q quits\n", addr)
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	fmt.Print("claims> ")
	for scanner.Scan() {
		line := scanner.Text()
		if t := strings.TrimSpace(line); t == `\q` || t == "exit" || t == "quit" {
			return
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			continue
		}
		stmt := strings.TrimSuffix(strings.TrimSpace(buf.String()), ";")
		buf.Reset()
		if stmt != "" {
			runRemote(conn, stmt)
		}
		fmt.Print("claims> ")
	}
}

// runRemote sends one statement and prints the streamed result.
func runRemote(conn *client.Conn, stmt string) {
	t0 := time.Now()
	rows, err := conn.Query(stmt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		return
	}
	if rows == nil {
		fmt.Printf("ok (%v)\n", time.Since(t0).Round(time.Microsecond))
		return
	}
	sch := rows.Schema()
	names := make([]string, len(sch.Cols))
	for i, col := range sch.Cols {
		names[i] = col.Name
	}
	fmt.Println(strings.Join(names, " | "))
	const maxShow = 40
	shown := 0
	for rows.Next() {
		if shown < maxShow {
			vals := rows.Row()
			parts := make([]string, len(vals))
			for j, v := range vals {
				parts[j] = v.String()
			}
			fmt.Println(strings.Join(parts, " | "))
		}
		shown++
	}
	if err := rows.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		return
	}
	if extra := int(rows.Total()) - maxShow; extra > 0 {
		fmt.Printf("... (%d more rows)\n", extra)
	}
	fmt.Printf("(%d rows, %v)\n", rows.Total(), time.Since(t0).Round(time.Microsecond))
}

func runQuery(c *engine.Cluster, q string) {
	stmt, explain, analyze := sql.StripExplain(strings.TrimSuffix(strings.TrimSpace(q), ";"))
	switch {
	case explain && analyze:
		// Execute with instrumentation and print the annotated plan
		// instead of the rows.
		res, err := c.Exec(context.Background(), engine.Request{SQL: stmt, Analyze: true})
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			return
		}
		fmt.Print(res.Analysis.Render())
		return
	case explain:
		p, err := plan.Compile(stmt, c.Catalog())
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			return
		}
		fmt.Print(p.String())
		return
	}
	res, err := c.Run(stmt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		return
	}
	fmt.Println(strings.Join(res.Names, " | "))
	const maxShow = 40
	rows := res.Rows()
	for i, row := range rows {
		if i == maxShow {
			fmt.Printf("... (%d more rows)\n", len(rows)-maxShow)
			break
		}
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
		}
		fmt.Println(strings.Join(parts, " | "))
	}
	fmt.Printf("(%d rows, %v, peak mem %.1f MB, network %.1f MB, sched overhead %v)\n",
		res.NumRows(), res.Stats.Duration.Round(time.Millisecond),
		float64(res.Stats.PeakMemoryBytes)/1e6,
		float64(res.Stats.NetworkBytes)/1e6,
		res.Stats.SchedOverhead.Round(time.Microsecond))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "claims:", err)
	os.Exit(1)
}

// parseByteSize parses a human byte size: a plain number (bytes) or a
// number with a KB/MB/GB/K/M/G suffix, case-insensitive. Empty is 0.
func parseByteSize(s string) (int64, error) {
	s = strings.TrimSpace(strings.ToUpper(s))
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	for _, u := range []struct {
		suffix string
		factor int64
	}{{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30},
		{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30}, {"B", 1}} {
		if strings.HasSuffix(s, u.suffix) {
			s = strings.TrimSuffix(s, u.suffix)
			mult = u.factor
			break
		}
	}
	n, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid byte size %q", s)
	}
	return int64(n * float64(mult)), nil
}
