package engine_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/sse"
	"repro/internal/tpch"
)

// The suite-wide tests of the executor collapse: every TPC-H and SSE
// query the repo ships, through the one operator builder under both of
// its environments, and through the compile-time segment order.

// serialBuilds decides, per PhysOp type, what the one builder must
// answer under the serial environment: true = builds, false = refuses
// with ErrNotSerial. The parallel environment builds every type. A new
// operator in plan/physical.go fails TestBuilderParity until it has a
// row here — that is, until both environments are decided.
var serialBuilds = map[reflect.Type]bool{
	reflect.TypeOf(&plan.PScan{}):     true,
	reflect.TypeOf(&plan.PFilter{}):   true,
	reflect.TypeOf(&plan.PProject{}):  true,
	reflect.TypeOf(&plan.PHashJoin{}): false,
	reflect.TypeOf(&plan.PHashAgg{}):  true,
	reflect.TypeOf(&plan.PSort{}):     true,
	reflect.TypeOf(&plan.PTopN{}):     true,
	reflect.TypeOf(&plan.PLimit{}):    true,
	reflect.TypeOf(&plan.PMerger{}):   true,
}

// suiteCluster loads both suites' tables, small, into one cluster.
func suiteCluster(t *testing.T) *engine.Cluster {
	t.Helper()
	const sf, sseRows = 0.001, 2000
	cat := catalog.New(2)
	tpch.RegisterTables(cat, sf)
	sse.RegisterTables(cat, sseRows)
	c := engine.NewCluster(engine.Config{Nodes: 2, CoresPerNode: 2, BlockSize: 8 * 1024}, cat)
	if err := tpch.Load(c, sf, 1); err != nil {
		t.Fatal(err)
	}
	if err := sse.Load(c, sse.GenConfig{Rows: sseRows, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// suiteQueries lists every shipped query, in a stable order, plus the
// one operator no suite query plans: a LIMIT without ORDER BY (with one
// the planner emits top-N).
func suiteQueries() []string {
	var ids []string
	out := []string{"SELECT acct_id, trade_volume FROM trades LIMIT 5"}
	all := map[string]string{}
	for _, m := range []map[string]string{tpch.Queries, tpch.SyntheticQueries, sse.Queries} {
		for id, q := range m {
			all[id] = q
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		out = append(out, all[id])
	}
	return out
}

// physOpTypes reads plan/physical.go and returns the name of every type
// that implements PhysOp there (a pointer-receiver Schema method).
func physOpTypes(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "../plan/physical.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || fd.Name.Name != "Schema" {
			continue
		}
		if st, ok := fd.Recv.List[0].Type.(*ast.StarExpr); ok {
			names = append(names, st.X.(*ast.Ident).Name)
		}
	}
	return names
}

// TestBuilderParity: the parallel environment lowers every operator of
// every suite plan, and the serial one lowers it or refuses with the
// typed error — exactly as serialBuilds says for the operator types in
// the subtree. The table must cover plan/physical.go.
func TestBuilderParity(t *testing.T) {
	decided := map[string]bool{}
	for ty := range serialBuilds {
		decided[ty.Elem().Name()] = true
	}
	declared := physOpTypes(t)
	if len(declared) == 0 {
		t.Fatal("found no PhysOp types in plan/physical.go")
	}
	for _, name := range declared {
		if !decided[name] {
			t.Errorf("plan.%s has no row in serialBuilds: decide both builder environments for it", name)
		}
	}

	c := suiteCluster(t)
	seen := map[reflect.Type]bool{}
	for _, q := range suiteQueries() {
		p, _, err := c.CompileCached(q)
		if err != nil {
			t.Fatalf("%.60s: %v", q, err)
		}
		builds, err := c.BuildUnderBothEnvs(p)
		if err != nil {
			t.Fatalf("%.60s: wiring: %v", q, err)
		}
		for _, b := range builds {
			seen[reflect.TypeOf(b.Op)] = true
			if b.Parallel != nil {
				t.Errorf("%.60s: %s under the parallel environment: %v", q, plan.OpLabel(b.Op), b.Parallel)
			}
			wantSerial := true
			plan.Walk(b.Op, func(op plan.PhysOp) {
				ok, known := serialBuilds[reflect.TypeOf(op)]
				if !known {
					t.Fatalf("%.60s: planner emitted %T, which serialBuilds does not decide", q, op)
				}
				wantSerial = wantSerial && ok
			})
			switch {
			case wantSerial && b.Serial != nil:
				t.Errorf("%.60s: %s under the serial environment: %v", q, plan.OpLabel(b.Op), b.Serial)
			case !wantSerial && !errors.Is(b.Serial, engine.ErrNotSerial):
				t.Errorf("%.60s: %s under the serial environment: got %v, want ErrNotSerial", q, plan.OpLabel(b.Op), b.Serial)
			}
		}
	}
	for ty := range serialBuilds {
		if !seen[ty] {
			t.Errorf("no suite query exercises %s", ty.Elem().Name())
		}
	}
	for node := 0; node <= c.Config().Nodes; node++ {
		if cur, _, _ := c.NodeMemory(node); cur != 0 {
			t.Errorf("node %d: %d tracked bytes left behind by the build harness", node, cur)
		}
	}
}

// producersFirst reports the first exchange whose producer does not
// stand before its consumer in p.Segments, or -1.
func producersFirst(p *plan.Plan) int {
	pos := map[int]int{}
	for i, s := range p.Segments {
		pos[s.ID] = i
	}
	for _, ex := range p.Exchanges {
		if pos[ex.Producer] >= pos[ex.Consumer] {
			return ex.ID
		}
	}
	return -1
}

// TestSegmentOrderInvariant: every compiled suite plan has Segments
// producers-first — what runMaterialized and the serial driver range
// over. A prepared statement runs that same plan, never a copy of it.
func TestSegmentOrderInvariant(t *testing.T) {
	c := suiteCluster(t)
	for _, q := range suiteQueries() {
		p, _, err := c.CompileCached(q)
		if err != nil {
			t.Fatalf("%.60s: %v", q, err)
		}
		if ex := producersFirst(p); ex >= 0 {
			t.Errorf("%.60s: exchange %d's producer does not precede its consumer", q, ex)
		}
	}
}
