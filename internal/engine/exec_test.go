package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/types"
)

// TestExecRequestEquivalence: the ways a Request can name and observe a
// statement — text, template plan + args, analyzed, under a caller's
// scope — return fingerprint-identical rows, whichever driver runs them:
// fast-path and parallel clusters, in EP, SP and ME. One statement is
// fast-path eligible (a point lookup), one is not (it repartitions).
func TestExecRequestEquivalence(t *testing.T) {
	statements := []execStatement{
		{text: "SELECT acct_id, trade_volume FROM trades WHERE sec_code = 3",
			tmpl: "SELECT acct_id, trade_volume FROM trades WHERE sec_code = $1",
			args: []types.Value{types.IntVal(3)}},
		{text: "SELECT acct_id, sum(trade_volume) AS vol FROM trades WHERE sec_code < 7 GROUP BY acct_id",
			tmpl: "SELECT acct_id, sum(trade_volume) AS vol FROM trades WHERE sec_code < $1 GROUP BY acct_id",
			args: []types.Value{types.IntVal(7)}},
	}
	for _, mode := range []Mode{EP, SP, ME} {
		for _, fast := range []bool{false, true} {
			c := buildFixture(t, Config{Nodes: 3, CoresPerNode: 2, Mode: mode, FastPath: fast})
			for si := range statements {
				statements[si].checkVariants(t, c, fmt.Sprintf("%s fast=%v statement %d", mode, fast, si))
			}
			c.Close()
		}
	}
}

// TestExecRequestEquivalenceEverySite is the same check for a statement
// with a slot at every kind of site at once — a pushed-down filter, a
// projection, an aggregate argument and a sort key, around a
// repartitioning join and a group-by — in EP, SP and ME on both fabrics.
func TestExecRequestEquivalenceEverySite(t *testing.T) {
	const shape = `SELECT T.sec_code, T.sec_code + %s AS shifted, sum(S.entry_volume * %s) AS vol
		FROM trades T, securities S
		WHERE T.acct_id = S.acct_id AND S.entry_volume < %s
		GROUP BY T.sec_code
		ORDER BY vol * %s DESC`
	st := execStatement{
		text: fmt.Sprintf(shape, "100", "2.0", "600.0", "-1.0"),
		tmpl: fmt.Sprintf(shape, "$1", "$2", "$3", "$4"),
		args: []types.Value{types.IntVal(100), types.FloatVal(2), types.FloatVal(600), types.FloatVal(-1)},
	}
	for _, mode := range []Mode{EP, SP, ME} {
		for _, tcp := range []bool{false, true} {
			c := buildFaultCluster(t, faultBaseConfig(mode, 2), tcp)
			st.checkVariants(t, c, fmt.Sprintf("%s tcp=%v", mode, tcp))
			if !tcp {
				c.Close() // buildFaultCluster closes the TCP one itself
			}
		}
	}
}

// execStatement is one statement as ad-hoc text and as a template with
// its arguments; want is the first fingerprint any variant on any
// cluster returned, which every later one must equal.
type execStatement struct {
	text, tmpl string
	args       []types.Value
	want       string
}

func (st *execStatement) checkVariants(t *testing.T, c *Cluster, where string) {
	t.Helper()
	tmpl, _, err := c.CompileCached(st.tmpl)
	if err != nil {
		t.Fatal(err)
	}
	sc := telemetry.NewScope("caller")
	variants := []struct {
		name string
		r    Request
	}{
		{"SQL", Request{SQL: st.text}},
		{"SQL+Args", Request{SQL: st.tmpl, Args: st.args}},
		{"Plan+Args", Request{Plan: tmpl, Args: st.args}},
		{"Analyze", Request{SQL: st.text, Analyze: true}},
		{"Plan+Args+Analyze", Request{Plan: tmpl, Args: st.args, Analyze: true}},
		{"Scope", Request{SQL: st.text, Scope: sc}},
	}
	for _, v := range variants {
		label := where + " " + v.name
		res, err := c.Exec(context.Background(), v.r)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if st.want == "" {
			st.want = fpFingerprint(res)
			if res.NumRows() == 0 {
				t.Fatalf("%s: no rows; the comparison would be vacuous", label)
			}
		}
		if got := fpFingerprint(res); got != st.want {
			t.Errorf("%s: rows differ from the first variant:\n%s\nvs\n%s", label, got, st.want)
		}
		if (res.Analysis != nil) != v.r.Analyze {
			t.Errorf("%s: Analysis present=%v", label, res.Analysis != nil)
		}
		if v.r.Scope != nil && res.Scope != v.r.Scope {
			t.Errorf("%s: Result.Scope is not the caller's scope", label)
		}
	}
}

// TestExecCancelLeavesNothingBehind: a cancelled ctx tears the query
// down through exec.fail and returns the context's error, and once Exec
// has returned the query holds nothing — no exchange registration on
// any socket node (observable on the TCP fabric), no tracked byte on
// any node's memory budget, no goroutine — on either fabric.
func TestExecCancelLeavesNothingBehind(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		t.Run(fmt.Sprintf("tcp=%v", tcp), func(t *testing.T) { cancelLeavesNothingBehind(t, tcp) })
	}
}

func cancelLeavesNothingBehind(t *testing.T, tcp bool) {
	c := buildFaultCluster(t, faultBaseConfig(EP, 2), tcp)
	defer c.Close()
	join := metamorphicQueries[2]
	if _, err := c.Run(join); err != nil { // dial the pools, warm the arenas
		t.Fatal(err)
	}
	baseline := settledGoroutines()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Exec(ctx, Request{SQL: join}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i+1)*500*time.Microsecond)
		_, err := c.Exec(ctx, Request{SQL: join})
		cancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("mid-flight deadline %d: err = %v, want DeadlineExceeded or success", i, err)
		}
	}

	if n := c.OpenExchanges(); n != 0 {
		t.Errorf("%d exchange registrations left open", n)
	}
	for node := 0; node <= c.Config().Nodes; node++ {
		if cur, _, _ := c.NodeMemory(node); cur != 0 {
			t.Errorf("node %d: %d bytes still tracked", node, cur)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d at baseline, %d after cancelled queries\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, err := c.Run(metamorphicQueries[0]); err != nil {
		t.Fatalf("query after cancellations: %v", err)
	}
}

// settledGoroutines is the goroutine count once it has held still for
// 100ms (at most 5s). A TCP cluster's connection pools pre-dial in the
// background and every accepted connection starts a read loop, so a
// count taken while that is under way would read the late read loops
// as a leak.
func settledGoroutines() int {
	runtime.GC()
	n, still := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(5 * time.Second); still < 5 && time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		} else {
			still++
		}
	}
	return n
}

// TestExecRejectsMisplacedDist: the placement guard exists once, in
// Exec — a spec on a single-process cluster is refused before anything
// is compiled.
func TestExecRejectsMisplacedDist(t *testing.T) {
	c := buildFixture(t, Config{Nodes: 3, CoresPerNode: 2})
	defer c.Close()
	_, err := c.Exec(context.Background(), Request{Dist: &ExecSpec{QID: 1, SQL: "SELECT count(*) FROM trades"}})
	if err == nil {
		t.Fatal("Request.Dist accepted on a single-process cluster")
	}
	if st := c.PlanCacheStats(); st.Hits+st.Misses != 0 {
		t.Errorf("refused request still compiled: %+v", st)
	}
}

// TestExecPreparedLookupAllocs pins the serving path's garbage: one
// Exec(Request{Plan, Args}) of the prepared point lookup on a FastPath
// cluster, arenas warm. The ceiling is what Exec measured on this
// fixture at commit 71732a6, where a pinned scan started reading only
// the partition that holds its key (20 allocations, three runs of 500,
// no spread; 38 when Exec was new), so neither the Request struct nor
// the shared stages and builder can quietly add per-statement
// allocations.
func TestExecPreparedLookupAllocs(t *testing.T) {
	const ceiling = 20
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	c := fastFixture(t, true)
	defer c.Close()
	p, _, err := c.CompileCached("SELECT acct_id, trade_volume FROM trades WHERE sec_code = $1")
	if err != nil {
		t.Fatal(err)
	}
	req := Request{SQL: "execute", Plan: p, Args: []types.Value{types.IntVal(3)}}
	ctx := context.Background()
	run := func() {
		res, err := c.Exec(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() == 0 {
			t.Fatal("lookup returned no rows")
		}
	}
	for i := 0; i < 10; i++ {
		run() // warm the arenas
	}
	if got := testing.AllocsPerRun(500, run); got > ceiling {
		t.Errorf("Exec of the prepared lookup allocates %v per statement, commit 71732a6 allocated %d", got, ceiling)
	} else {
		t.Logf("%v allocs per Exec (ceiling: %d)", got, ceiling)
	}
}

// TestExecGroupByAllocs is the allocation ceiling for the small
// group-by the serial driver answers in microseconds (the benchmark's
// adhoc_text sends this text one statement in eight): four groups out
// of a filtered scan, on a FastPath cluster, plan cached, arenas warm.
// The ceiling is what Exec allocates on this fixture since the
// aggregation reads the filter's selection and folds the pruning
// projection, its plans and argument program built once per operator,
// its key encoder forked per worker, and the serial driver builds only
// its one-shard table (73 per statement, three runs of 500, no spread;
// 75 at commit d527abf, which built the 64-shard table first and then
// replaced it; 82 at commit 71732a6, 109 under the map-of-groups
// aggregation), so the flat group table, its accumulator columns and
// the fused input path cannot tax statements this small.
func TestExecGroupByAllocs(t *testing.T) {
	const ceiling = 73
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	c := fastFixture(t, true)
	defer c.Close()
	req := Request{SQL: "SELECT sec_code, count(*), sum(trade_volume) FROM trades WHERE sec_code IN (1, 4, 7, 9) GROUP BY sec_code"}
	ctx := context.Background()
	run := func() {
		res, err := c.Exec(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != 4 {
			t.Fatalf("group-by returned %d rows, want 4", res.NumRows())
		}
	}
	for i := 0; i < 10; i++ {
		run() // warm the plan cache and the arenas
	}
	if got := testing.AllocsPerRun(500, run); got > ceiling {
		t.Errorf("Exec of the small group-by allocates %v per statement, the ceiling is %d", got, ceiling)
	} else {
		t.Logf("%v allocs per Exec (ceiling: %d)", got, ceiling)
	}
}
