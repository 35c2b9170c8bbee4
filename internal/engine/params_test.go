package engine

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	gotypes "go/types"
	"reflect"
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/iterator"
	"repro/internal/plan"
	"repro/internal/types"
)

// Tests of parameter binding at build time: a prepared statement is the
// shared template plus its argument values, and the values enter at the
// fields of plan/physical.go the builder hands to iterator constructors.

// paramSites decides every expression-bearing field of plan/physical.go:
// a statement (on the buildFaultCluster tables) that compiles to a `$1`
// in that field, with a value for it. A new operator or a new
// expression field fails TestParamSitesParity until it has a row —
// until plan.walkOpExprs counts its slots and the builder substitutes
// them.
var paramSites = map[string]struct {
	sql string
	arg types.Value
}{
	"PScan.Pred": {"SELECT acct_id FROM trades WHERE sec_code = $1", types.IntVal(3)},
	"PFilter.Pred": {`SELECT T.sec_code FROM trades T, securities S
		WHERE T.acct_id = S.acct_id AND T.trade_volume + S.entry_volume < $1`, types.FloatVal(100)},
	"PProject.Exprs": {"SELECT acct_id + $1 FROM trades", types.IntVal(3)},
	// The join builds on securities, the smaller table, whatever the
	// FROM order.
	"PHashJoin.BuildKeys": {`SELECT T.sec_code FROM trades T, securities S
		WHERE T.acct_id = S.acct_id + $1`, types.IntVal(1)},
	"PHashJoin.ProbeKeys": {`SELECT T.sec_code FROM trades T, securities S
		WHERE T.acct_id + $1 = S.acct_id`, types.IntVal(1)},
	// Grouped by a column of the build side (securities), the partial
	// aggregation's arguments move into the join.
	"PHashJoin.Aggs": {`SELECT S.acct_id, sum(T.trade_volume * $1) FROM trades T, securities S
		WHERE T.acct_id = S.acct_id GROUP BY S.acct_id`, types.FloatVal(2)},
	"PHashAgg.Keys":  {"SELECT sec_code + $1, count(*) FROM trades GROUP BY sec_code + $1", types.IntVal(1)},
	"PHashAgg.Specs": {"SELECT sec_code, sum(trade_volume * $1) FROM trades GROUP BY sec_code", types.FloatVal(2)},
	"PSort.Keys":     {"SELECT acct_id, trade_volume FROM trades ORDER BY trade_volume * $1", types.FloatVal(-1)},
	"PTopN.Keys":     {"SELECT acct_id, trade_volume FROM trades ORDER BY trade_volume * $1 LIMIT 5", types.FloatVal(-1)},
	"OutSpec.PartKeys": {`SELECT T.sec_code FROM trades T, securities S
		WHERE T.acct_id + $1 = S.acct_id`, types.IntVal(1)},
}

// exprFieldTypes are the field types of plan/physical.go that carry
// expressions.
var exprFieldTypes = map[string]bool{
	"expr.Expr": true, "[]expr.Expr": true, "[]iterator.SortKey": true, "[]iterator.AggSpec": true,
}

// planExprFields reads plan/physical.go and returns "Type.Field" for
// every struct field of an expression-bearing type.
func planExprFields(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "../plan/physical.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sites []string
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return true
		}
		for _, fld := range st.Fields.List {
			if exprFieldTypes[gotypes.ExprString(fld.Type)] {
				for _, name := range fld.Names {
					sites = append(sites, ts.Name.Name+"."+name.Name)
				}
			}
		}
		return true
	})
	return sites
}

// exprsAt returns the expressions in v, a value of one of the
// exprFieldTypes.
func exprsAt(v reflect.Value) []expr.Expr {
	switch f := v.Interface().(type) {
	case expr.Expr:
		return []expr.Expr{f}
	case []expr.Expr:
		return f
	case []iterator.SortKey:
		out := make([]expr.Expr, len(f))
		for i := range f {
			out[i] = f[i].E
		}
		return out
	case []iterator.AggSpec:
		out := make([]expr.Expr, len(f))
		for i := range f {
			out[i] = f[i].Arg
		}
		return out
	}
	return nil
}

// slotsAt counts the parameter slots the plan holds at site
// ("Type.Field").
func slotsAt(p *plan.Plan, site string) int {
	n := 0
	visit := func(node any) {
		v := reflect.ValueOf(node).Elem()
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Name()+"."+v.Type().Field(i).Name != site {
				continue
			}
			for _, e := range exprsAt(v.Field(i)) {
				expr.Walk(e, func(x expr.Expr) {
					if _, ok := x.(*expr.Param); ok {
						n++
					}
				})
			}
		}
	}
	for _, seg := range p.Segments {
		plan.Walk(seg.Root, func(op plan.PhysOp) { visit(op) })
		if seg.Out != nil {
			visit(seg.Out)
		}
	}
	return n
}

var paramType = reflect.TypeOf(&expr.Param{})

// holdsParam reports whether a *expr.Param is reachable from v through
// pointers, interfaces, structs, slices, arrays and maps — exported
// fields or not.
func holdsParam(v reflect.Value, seen map[[2]uintptr]bool) bool {
	once := func() bool {
		k := [2]uintptr{v.Pointer(), reflect.ValueOf(v.Type()).Pointer()}
		if seen[k] {
			return false
		}
		seen[k] = true
		return true
	}
	switch v.Kind() {
	case reflect.Ptr:
		if v.IsNil() {
			return false
		}
		return v.Type() == paramType || once() && holdsParam(v.Elem(), seen)
	case reflect.Interface:
		return !v.IsNil() && holdsParam(v.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if holdsParam(v.Field(i), seen) {
				return true
			}
		}
	case reflect.Slice, reflect.Array:
		switch v.Type().Elem().Kind() {
		case reflect.Ptr, reflect.Interface, reflect.Struct, reflect.Slice, reflect.Array, reflect.Map:
		default:
			return false // bytes and numbers hold nothing
		}
		if v.Kind() == reflect.Slice && (v.IsNil() || !once()) {
			return false
		}
		for i := 0; i < v.Len(); i++ {
			if holdsParam(v.Index(i), seen) {
				return true
			}
		}
	case reflect.Map:
		if v.IsNil() || !once() {
			return false
		}
		for it := v.MapRange(); it.Next(); {
			if holdsParam(it.Key(), seen) || holdsParam(it.Value(), seen) {
				return true
			}
		}
	}
	return false
}

// builtHoldsParam builds p with args under both builder environments —
// every hosted segment instance of the parallel one (its operator tree
// and its sender), every segment the serial one admits — and reports
// whether any built iterator still holds a parameter slot.
func builtHoldsParam(t *testing.T, c *Cluster, p *plan.Plan, args []types.Value) bool {
	t.Helper()
	e, teardown, err := c.wireOnly(p, args)
	if err != nil {
		t.Fatal(err)
	}
	defer teardown()
	seen := map[[2]uintptr]bool{}
	found := false
	for _, inst := range e.insts {
		found = found || holdsParam(reflect.ValueOf(inst.el), seen) || holdsParam(reflect.ValueOf(inst.sender), seen)
	}
	for _, seg := range p.Segments {
		it, err := e.buildOp(seg.Root, buildEnv{seg: seg})
		if errors.Is(err, errNotSerial) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		found = found || holdsParam(reflect.ValueOf(it), seen)
	}
	return found
}

// TestParamSitesParity: for every expression-bearing field of every
// struct in plan/physical.go, a template with a `$1` there reports it
// (NumParams, through plan.walkOpExprs and expr.Walk) and comes
// out of the builder with no slot left. The same build without the
// substitution must trip the check, or the check could not have seen
// the site.
func TestParamSitesParity(t *testing.T) {
	declared := planExprFields(t)
	if len(declared) < len(paramSites) {
		t.Fatalf("found %d expression fields in plan/physical.go, the table has %d", len(declared), len(paramSites))
	}
	c := buildFaultCluster(t, faultBaseConfig(EP, 2), false)
	defer c.Close()
	for _, site := range declared {
		row, ok := paramSites[site]
		if !ok {
			t.Errorf("plan.%s has no row in paramSites: decide it in plan.walkOpExprs and in the builder", site)
			continue
		}
		p, _, err := c.CompileCached(row.sql)
		if err != nil {
			t.Fatalf("%s: %v", site, err)
		}
		if slotsAt(p, site) == 0 {
			t.Fatalf("%s: its statement compiles to no slot there:\n%s", site, p)
		}
		if p.NumParams != 1 {
			t.Errorf("%s: NumParams = %d, want 1", site, p.NumParams)
		}
		if builtHoldsParam(t, c, p, []types.Value{row.arg}) {
			t.Errorf("%s: a slot survives the builder", site)
		}
		if !builtHoldsParam(t, c, p, nil) {
			t.Errorf("%s: built without substitution, yet no slot was found: the check cannot see this site", site)
		}
	}
	for node := 0; node <= c.Config().Nodes; node++ {
		if cur, _, _ := c.NodeMemory(node); cur != 0 {
			t.Errorf("node %d: %d tracked bytes left behind by the build harness", node, cur)
		}
	}
}

// TestTemplateSharedByConcurrentExecs: one template, eight goroutines,
// distinct arguments, on a fast-path and on a parallel cluster. Every
// EXECUTE returns what the ad-hoc statement with its value returns, and
// the template renders byte-identically afterwards. Run under -race
// this is the proof that binding writes nothing shared.
func TestTemplateSharedByConcurrentExecs(t *testing.T) {
	const workers, rounds = 8, 200
	ctx := context.Background()
	for _, fast := range []bool{true, false} {
		c := fastFixture(t, fast)
		tmpl, _, err := c.CompileCached("SELECT acct_id, trade_volume FROM trades WHERE sec_code = $1")
		if err != nil {
			t.Fatal(err)
		}
		before := tmpl.String()
		var want [workers]string
		for g := range want {
			res, err := c.Exec(ctx, Request{SQL: fmt.Sprintf("SELECT acct_id, trade_volume FROM trades WHERE sec_code = %d", g)})
			if err != nil {
				t.Fatal(err)
			}
			if res.NumRows() == 0 {
				t.Fatalf("sec_code = %d matches nothing; the comparison would be vacuous", g)
			}
			want[g] = fpFingerprint(res)
		}
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				args := []types.Value{types.IntVal(int64(g))}
				for i := 0; i < rounds; i++ {
					res, err := c.Exec(ctx, Request{Plan: tmpl, Args: args})
					if err != nil {
						t.Errorf("fast=%v worker %d round %d: %v", fast, g, i, err)
						return
					}
					if got := fpFingerprint(res); got != want[g] {
						t.Errorf("fast=%v worker %d round %d: rows differ from the ad-hoc statement", fast, g, i)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if after := tmpl.String(); after != before {
			t.Errorf("fast=%v: the template changed:\nbefore: %s\nafter:  %s", fast, before, after)
		}
		c.Close()
	}
}
