package engine_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/protocol"
	"repro/internal/session"
	"repro/internal/types"
)

// The generated suite: seeded statements over the TPC-H and SSE schemas,
// each run through the real engine and judged against the oracle's
// answer (oracle_ir_test.go). The seeds are fixed here; -short runs a
// smaller slice.

// config is one way of running a statement.
type config struct {
	name     string
	c        *engine.Cluster
	prepared bool         // CompileCached + Exec(Request{Plan, Args})
	conn     *client.Conn // served: the statement goes over EPQ1
}

// clusterConfig is the engine configuration every cluster of the suite
// starts from: three data nodes of two cores, and small blocks so every
// operator sees many block boundaries.
func clusterConfig(mode engine.Mode, fast bool) engine.Config {
	return engine.Config{Nodes: 3, CoresPerNode: 2, Mode: mode, FastPath: fast,
		BlockSize: 2048, SchedTick: 5 * time.Millisecond, ExchangeBuffer: 8}
}

// faultSchedule is the seeded fault schedule of the faulted slice:
// frame drops, duplicates, corruption and worker crashes.
var faultSchedule = faults.Config{Seed: 11, Drop: 0.03, Dup: 0.02, Corrupt: 0.01, CrashWorker: 0.001}

// configurations builds every way a statement can run: EP, SP and ME ×
// the in-process and the TCP fabric × the fast path on and off × ad hoc
// and prepared; one served through protocol.Serve and internal/client;
// and, unless short, one under faultSchedule.
func configurations(t *testing.T, db *odb) []*config {
	var out []*config
	for _, mode := range []engine.Mode{engine.EP, engine.SP, engine.ME} {
		for _, tcp := range []bool{false, true} {
			for _, fast := range []bool{false, true} {
				cfg := clusterConfig(mode, fast)
				c := db.cluster(t, cfg.Nodes, func(cat *catalog.Catalog) (*engine.Cluster, error) {
					if tcp {
						return engine.NewClusterTCP(cfg, cat)
					}
					return engine.NewCluster(cfg, cat), nil
				})
				name := fmt.Sprintf("%v/%s/fast=%v", mode, map[bool]string{false: "inproc", true: "tcp"}[tcp], fast)
				out = append(out, &config{name: name + "/adhoc", c: c}, &config{name: name + "/prepared", c: c, prepared: true})
			}
		}
	}
	srv, err := protocol.Serve("127.0.0.1:0", session.Direct{C: out[0].c})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	out = append(out, &config{name: "served", c: out[0].c, conn: conn})
	if !testing.Short() {
		out = append(out, faultedConfig(t, db))
	}
	return out
}

// faultedConfig is an EP cluster over the in-process fabric with
// faultSchedule attached.
func faultedConfig(t *testing.T, db *odb) *config {
	cfg := clusterConfig(engine.EP, false)
	cfg.Faults = faults.New(faultSchedule)
	c := db.cluster(t, cfg.Nodes, func(cat *catalog.Catalog) (*engine.Cluster, error) {
		return engine.NewCluster(cfg, cat), nil
	})
	return &config{name: "faults/" + faultSchedule.String(), c: c}
}

// text is the statement as this configuration sends it.
func (cf *config) text(s *stmt) string {
	return s.sql(cf.prepared || cf.conn != nil && len(s.params) > 0)
}

// run sends s and returns the rows that came back.
func (cf *config) run(s *stmt) ([]row, error) {
	if cf.conn != nil {
		return cf.serve(s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	req := engine.Request{SQL: cf.text(s)}
	if cf.prepared {
		p, _, err := cf.c.CompileCached(req.SQL)
		if err != nil {
			return nil, err
		}
		req.Plan, req.Args = p, s.args()
	}
	res, err := cf.c.Exec(ctx, req)
	if err != nil {
		return nil, err
	}
	var out []row
	for _, r := range res.Rows() {
		out = append(out, row(r))
	}
	return out, nil
}

// serve sends s over the EPQ1 connection: PREPARE and EXECUTE when it
// has $n slots, a plain query otherwise.
func (cf *config) serve(s *stmt) ([]row, error) {
	var rows *client.Rows
	var err error
	if len(s.params) > 0 {
		if _, err := cf.conn.Prepare("g", cf.text(s)); err != nil {
			return nil, err
		}
		rows, err = cf.conn.Execute("g", s.args()...)
	} else {
		rows, err = cf.conn.Query(cf.text(s))
	}
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out []row
	for rows.Next() {
		out = append(out, append(row(nil), rows.Row()...))
	}
	return out, rows.Err()
}

// explain reruns s analyzed on the configuration's cluster, for a
// failure message: the measured plan, its header carrying the args.
func (cf *config) explain(s *stmt) string {
	req := engine.Request{SQL: s.sql(false), Analyze: true}
	if len(s.params) > 0 {
		p, _, err := cf.c.CompileCached(s.sql(true))
		if err != nil {
			return err.Error()
		}
		req = engine.Request{Plan: p, Args: s.args(), Analyze: true}
	}
	res, err := cf.c.Exec(context.Background(), req)
	if err != nil {
		return err.Error()
	}
	return res.Analysis.Render()
}

// same compares two values of one kind, floats to a relative 1e-9 (a
// parallel sum adds in whatever order its workers finish).
func same(a, b types.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case types.Float64:
		return a.F == b.F || math.Abs(a.F-b.F) <= 1e-9*math.Max(math.Abs(a.F), math.Abs(b.F))
	case types.String:
		return a.S == b.S
	}
	return a.I == b.I
}

func sameRow(a, b row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !same(a[i], b[i]) {
			return false
		}
	}
	return true
}

func rowCmp(a, b row) int {
	for i := range a {
		if d := order(a[i], b[i]); d != 0 {
			return d
		}
	}
	return 0
}

// check judges got, the engine's rows, against want, the oracle's:
// kinds column by column; under ORDER BY the sequence of sort-key
// values; without LIMIT the rows as a multiset; with LIMIT the count and
// that every row is one of the oracle's (which rows a LIMIT keeps among
// ties, or without ORDER BY at all, is unspecified).
func check(s *stmt, want, got []row) error {
	kinds := s.kinds()
	for i, r := range got {
		if len(r) != len(kinds) {
			return fmt.Errorf("row %d has %d columns, want %d", i, len(r), len(kinds))
		}
		for j, v := range r {
			if v.Kind != kinds[j] {
				return fmt.Errorf("column %d is %v, want %v", j, v.Kind, kinds[j])
			}
		}
	}
	n := len(want)
	if s.limit >= 0 {
		n = min(n, s.limit)
	}
	if len(got) != n {
		return fmt.Errorf("%d rows, want %d", len(got), n)
	}
	for i := range got {
		for _, o := range s.order {
			if g, w := o.sortKey(got[i]), o.sortKey(want[i]); !same(g, w) {
				return fmt.Errorf("row %d sorts on %v, want %v", i, g, w)
			}
		}
	}
	if s.limit >= 0 {
		used := make([]bool, len(want))
	next:
		for i, r := range got {
			for j, w := range want {
				if !used[j] && sameRow(r, w) {
					used[j] = true
					continue next
				}
			}
			return fmt.Errorf("row %d %v is not a row of the answer", i, r)
		}
		return nil
	}
	g := append([]row(nil), got...)
	w := append([]row(nil), want...)
	sort.Slice(g, func(i, j int) bool { return rowCmp(g[i], g[j]) < 0 })
	sort.Slice(w, func(i, j int) bool { return rowCmp(w[i], w[j]) < 0 })
	for i := range g {
		if !sameRow(g[i], w[i]) {
			return fmt.Errorf("sorted row %d is %v, want %v", i, g[i], w[i])
		}
	}
	return nil
}

// failure is the message for a statement a configuration got wrong:
// enough to rerun it (seed, index, configuration, text, args) and the
// analyzed plan it ran.
func failure(seed int64, idx int, cf *config, s *stmt, err error, want, got []row) string {
	args := make([]string, len(s.params))
	for i, p := range s.params {
		args[i] = sqlLit(p.v)
	}
	return fmt.Sprintf("seed %d statement %d on %s: %v\n%s\nargs: (%s)\nwant %d rows %v\ngot %d rows %v\n%s",
		seed, idx, cf.name, err, cf.text(s), strings.Join(args, ", "),
		len(want), head(want), len(got), head(got), cf.explain(s))
}

func head(rows []row) []row { return rows[:min(len(rows), 5)] }

// joinSides is one hash join as EXPLAIN shows it: the base tables under
// each side, whether each side arrives through a repartition, and
// whether it matches its keys as one word (both keys an integer column)
// or as bytes.
type joinSides struct {
	build, probe             map[string]bool
	buildRepart, probeRepart bool
	word                     bool
}

// explained is what the suite reads out of an EXPLAIN rendering.
type explained struct {
	joins []joinSides
	// rawRepart: an aggregation reads raw rows repartitioned on its
	// group keys (the one-phase plan), so those keys are partition keys.
	rawRepart bool
	// scanParam / filterParam: a $n in a scan's or a filter's predicate.
	scanParam, filterParam bool
	// perBuildRow: a join aggregates its matches per build row.
	perBuildRow bool
}

// readExplain parses p.String(): segments, their scans, the exchange
// each feeds, and every hash join's two subtrees.
func readExplain(text string) explained {
	type seg struct {
		lines  []string
		repart bool
	}
	var segs []*seg
	producer := map[int]*seg{}
	scan := func(s, format string, ex *int) bool {
		_, err := fmt.Sscanf(strings.TrimSpace(s), format, ex)
		return err == nil
	}
	for _, line := range strings.Split(text, "\n") {
		trim := strings.TrimSpace(line)
		var ex int
		switch {
		case strings.HasPrefix(line, "segment "):
			segs = append(segs, &seg{})
		case line == "":
		case scan(trim, "-> repartition via exchange %d", &ex):
			producer[ex] = segs[len(segs)-1]
			segs[len(segs)-1].repart = true
		case scan(trim, "-> gather via exchange %d", &ex):
			producer[ex] = segs[len(segs)-1]
		case strings.HasPrefix(trim, "->"):
		default:
			segs[len(segs)-1].lines = append(segs[len(segs)-1].lines, line)
		}
	}
	var tables func(lines []string, into map[string]bool)
	tables = func(lines []string, into map[string]bool) {
		for _, l := range lines {
			f := strings.Fields(l)
			var ex int
			switch {
			case f[0] == "scan":
				into[f[1]] = true
			case scan(l, "merger (exchange %d)", &ex):
				tables(producer[ex].lines, into)
			}
		}
	}
	// repartitioned reports whether the subtree rooted at line l arrives
	// through a repartition, and what feeds it.
	repartitioned := func(l string) (bool, *seg) {
		var ex int
		if scan(l, "merger (exchange %d)", &ex) {
			return producer[ex].repart, producer[ex]
		}
		return false, nil
	}
	indent := func(l string) int { return len(l) - len(strings.TrimLeft(l, " ")) }
	var out explained
	for _, sg := range segs {
		for i, l := range sg.lines {
			trim := strings.TrimSpace(l)
			if strings.Contains(l, "$") {
				out.scanParam = out.scanParam || strings.HasPrefix(trim, "scan ")
				out.filterParam = out.filterParam || strings.HasPrefix(trim, "filter ")
			}
			if strings.HasPrefix(trim, "hash agg") && i+1 < len(sg.lines) {
				if rp, from := repartitioned(sg.lines[i+1]); rp && !strings.HasPrefix(strings.TrimSpace(from.lines[0]), "hash agg") {
					out.rawRepart = true
				}
			}
			if !strings.HasPrefix(trim, "hash join") {
				continue
			}
			out.perBuildRow = out.perBuildRow || strings.Contains(trim, "(per build row:")
			d := indent(l)
			js := joinSides{build: map[string]bool{}, probe: map[string]bool{},
				word: strings.HasPrefix(trim, "hash join (word key)")}
			var side []string
			var sides [][]string
			for _, m := range sg.lines[i+1:] {
				if indent(m) <= d {
					break
				}
				if indent(m) == d+2 {
					sides = append(sides, side)
					side = nil
					continue
				}
				side = append(side, m)
			}
			sides = append(sides, side)
			build, probe := sides[1], sides[2]
			tables(build, js.build)
			tables(probe, js.probe)
			js.buildRepart, _ = repartitioned(build[0])
			js.probeRepart, _ = repartitioned(probe[0])
			out.joins = append(out.joins, js)
		}
	}
	return out
}

// hasParam reports whether a $n sits anywhere in e.
func hasParam(e node) bool {
	found := false
	walk(e, func(n node) {
		if _, ok := n.(*param); ok {
			found = true
		}
	})
	return found
}

// joinShape reads the data of a two-table statement whose join builds
// on the table at FROM position b: unmatched, a build row that passes
// its own conjuncts meets no probe row; many, a probe row meets two
// build rows.
func (s *stmt) joinShape(b int) (unmatched, many bool) {
	met := map[*types.Value]int{}      // build row → rows of the join
	perProbe := map[*types.Value]int{} // probe row → rows of the join
	s.bind(func(env []row) {
		met[&env[b][0]]++
		perProbe[&env[1-b][0]]++
	})
	c := &ectx{env: make([]row, len(s.from))}
rows:
	for _, r := range s.from[b].t.rows {
		c.env[b] = r
		for _, w := range s.where {
			if ps := positions(w); len(ps) == 1 && ps[0] == b && !holds(w.eval(c)) {
				continue rows
			}
		}
		unmatched = unmatched || met[&r[0]] == 0
	}
	for _, n := range perProbe {
		many = many || n > 1
	}
	return unmatched, many
}

// table names the table of the one column e reads.
func (s *stmt) table(e node) string {
	return s.from[positions(e)[0]].t.name
}

// explainFeatures adds what only the plan can tell to s's features:
// each join's build side (the first FROM table's side, or the side
// joined later), and the plan fields its $n slots landed in — the ten
// sites TestParamSitesParity enumerates.
func explainFeatures(s *stmt, ex explained) {
	for _, j := range ex.joins {
		if j.build[s.from[0].t.name] {
			s.mark("build:first-in-FROM")
		} else {
			s.mark("build:later-in-FROM")
		}
		if j.word {
			s.mark("join:word-key")
		} else {
			s.mark("join:byte-key")
		}
	}
	site := func(e node, name string) {
		if hasParam(e) {
			s.mark("$n:" + name)
		}
	}
	for _, w := range s.where[:s.nJoin] {
		c := w.(*cmp)
		side, other := c.l, c.r
		if !hasParam(side) {
			side, other = other, side
		}
		if !hasParam(side) {
			continue
		}
		t, u := s.table(side), s.table(other)
		for _, j := range ex.joins {
			switch {
			case j.build[t] && j.probe[u]:
				s.mark("$n:PHashJoin.BuildKeys")
				if j.buildRepart {
					s.mark("$n:OutSpec.PartKeys")
				}
			case j.probe[t] && j.build[u]:
				s.mark("$n:PHashJoin.ProbeKeys")
				if j.probeRepart {
					s.mark("$n:OutSpec.PartKeys")
				}
			}
		}
	}
	if ex.scanParam {
		s.mark("$n:PScan.Pred")
	}
	if ex.filterParam {
		s.mark("$n:PFilter.Pred")
	}
	// A join that aggregates per build row holds every aggregate's
	// argument; the aggregations above it merge partials.
	specs := "PHashAgg.Specs"
	if ex.perBuildRow {
		specs = "PHashJoin.Aggs"
		s.mark("agg:per-build-row")
		if len(s.groupBy) == 0 {
			s.mark("per-build-row:scalar")
		}
		if len(s.from) == 2 {
			for pos, f := range s.from {
				if ex.joins[0].build[f.t.name] {
					unmatched, many := s.joinShape(pos)
					if unmatched {
						s.mark("per-build-row:unmatched-build")
					}
					if many {
						s.mark("per-build-row:many-to-many")
					}
				}
			}
		}
	}
	for _, it := range s.items {
		if !s.agg {
			site(it.e, "PProject.Exprs")
		}
		walk(it.e, func(n node) {
			if a, ok := n.(*aggCall); ok && a.arg != nil {
				site(a.arg, specs)
			}
		})
	}
	for _, g := range s.groupBy {
		site(g, "PHashAgg.Keys")
		if ex.rawRepart {
			site(g, "OutSpec.PartKeys")
		}
	}
	for _, o := range s.order {
		if o.scale != nil {
			s.mark(map[bool]string{true: "$n:PTopN.Keys", false: "$n:PSort.Keys"}[s.limit >= 0])
		}
	}
}

// required lists the features the generated suite must cover: each
// predicate shape, join arity, build side, group-by arity, aggregate,
// ORDER BY/LIMIT form, and $n site.
var required = []string{
	"pred:cmp-const-int", "pred:cmp-const-float", "pred:cmp-const-date", "pred:cmp-const-char",
	"pred:cmp-col", "pred:between", "pred:in", "pred:like-prefix", "pred:like-suffix",
	"pred:like-infix", "pred:not-like", "pred:or", "pred:not",
	"join:1", "join:2", "join:3", "build:first-in-FROM", "build:later-in-FROM",
	"join-key:computed", "join:word-key", "join:byte-key",
	"groupby:0", "groupby:1", "groupby:2", "groupby:3", "group-key:char", "group-key:computed",
	"agg:count*", "agg:count", "agg:sum", "agg:avg", "agg:min", "agg:max", "agg:over-expr", "agg:over-div", "having",
	"having:between", "having:in", "proj:key-between", "proj:key-in",
	"agg:per-build-row", "per-build-row:scalar", "per-build-row:unmatched-build", "per-build-row:many-to-many",
	"proj:arith", "proj:div", "proj:case", "proj:extract", "order", "order+limit", "limit",
	"$n:PScan.Pred", "$n:PFilter.Pred", "$n:PProject.Exprs", "$n:PHashJoin.BuildKeys",
	"$n:PHashJoin.ProbeKeys", "$n:PHashJoin.Aggs", "$n:PHashAgg.Keys", "$n:PHashAgg.Specs", "$n:PSort.Keys",
	"$n:PTopN.Keys", "$n:OutSpec.PartKeys",
	"pin:=", "pin:in", "pin:absent", "pin:other-kind", "pin:$n", "pin:composite",
}

// coverage counts statements per feature and runs per configuration.
type coverage struct {
	stmts   int
	feats   map[string]int
	configs map[string]int
}

func (cv *coverage) report(t *testing.T, enforce bool) {
	var lines []string
	for f, n := range cv.feats {
		lines = append(lines, fmt.Sprintf("  %-26s %4d", f, n))
	}
	sort.Strings(lines)
	var cfgs []string
	for c, n := range cv.configs {
		cfgs = append(cfgs, fmt.Sprintf("  %-40s %4d", c, n))
	}
	sort.Strings(cfgs)
	t.Logf("%d statements; statements per feature:\n%s\nruns per configuration:\n%s",
		cv.stmts, strings.Join(lines, "\n"), strings.Join(cfgs, "\n"))
	if !enforce {
		return
	}
	for _, f := range required {
		if cv.feats[f] == 0 {
			t.Errorf("no generated statement covers %s", f)
		}
	}
}

// TestGeneratedStatements runs seeded generated statements through the
// engine and holds each to the oracle. Statement i runs on every
// configuration while i < everywhere, and on configuration i mod n
// after that. perSeed/4 statements follow the perSeed plain ones, each
// also pinning a partition key, so a seed's plain statements are the
// ones it always drew.
func TestGeneratedStatements(t *testing.T) {
	seeds, perSeed, everywhere := []int64{1, 2, 3}, 200, 16
	if testing.Short() {
		seeds, perSeed, everywhere = []int64{1}, 40, 6
	}
	cv := &coverage{feats: map[string]int{}, configs: map[string]int{}}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			db := tpchSSE(seed)
			cfgs := configurations(t, db)
			g := &gen{rng: rand.New(rand.NewSource(seed)), db: db}
			for i := 0; i < perSeed+perSeed/4; i++ {
				s := g.statement(i >= perSeed)
				p, _, err := cfgs[0].c.CompileCached(s.sql(true))
				if err != nil {
					t.Fatalf("seed %d statement %d does not compile: %v\n%s", seed, i, err, s.sql(true))
				}
				explainFeatures(s, readExplain(p.String()))
				want := s.eval()
				on := cfgs
				if i >= everywhere {
					on = cfgs[i%len(cfgs) : i%len(cfgs)+1]
				}
				for _, cf := range on {
					got, err := cf.run(s)
					if err == nil {
						err = check(s, want, got)
					}
					if err != nil {
						t.Error(failure(seed, i, cf, s, err, want, got))
					}
					cv.configs[cf.name]++
				}
				cv.stmts++
				for f := range s.feats {
					cv.feats[f]++
				}
			}
		})
	}
	cv.report(t, !testing.Short())
}
