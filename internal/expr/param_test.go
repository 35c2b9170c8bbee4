package expr

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"

	"repro/internal/types"
)

// paramNodes decides, for every concrete Expr type, how many child
// positions can hold a parameter slot and builds the node with a
// distinct slot ($1, $2, …) in each of them. WalkParams, substParams
// and Rebase are closed switches over exactly these types: a new node
// fails TestParamSwitchesAreClosed until it has a row here, which is to
// say until someone has decided where its slots sit in all three.
var paramNodes = map[string]struct {
	slots int
	build func(slot func() Expr) Expr
}{
	"Col":   {0, func(func() Expr) Expr { return NewCol(0, "a") }},
	"Const": {0, func(func() Expr) Expr { return NewConst(types.IntVal(1)) }},
	"Param": {1, func(s func() Expr) Expr { return s() }},
	"Arith": {2, func(s func() Expr) Expr { return NewArith(Add, s(), s()) }},
	"Cmp":   {2, func(s func() Expr) Expr { return NewCmp(LT, s(), s()) }},
	"And":   {2, func(s func() Expr) Expr { return &And{Terms: []Expr{s(), s()}} }},
	"Or":    {2, func(s func() Expr) Expr { return &Or{Terms: []Expr{s(), s()}} }},
	"Not":   {1, func(s func() Expr) Expr { return NewNot(s()) }},
	"Like":  {1, func(s func() Expr) Expr { return NewLike(s(), "a%", false) }},
	"Between": {3, func(s func() Expr) Expr {
		return NewBetween(s(), s(), s())
	}},
	"In": {1, func(s func() Expr) Expr { return NewIn(s(), []types.Value{types.IntVal(1)}) }},
	"Case": {3, func(s func() Expr) Expr {
		return NewCase([]When{{Cond: s(), Then: s()}}, s())
	}},
	"Extract":   {1, func(s func() Expr) Expr { return NewExtract(Year, s()) }},
	"AddMonths": {1, func(s func() Expr) Expr { return NewAddMonths(s(), 3) }},
}

// exprTypes reads the package's source and returns the name of every
// type with an Eval method — every concrete Expr.
func exprTypes(t *testing.T) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range pkgs["expr"].Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "Eval" {
				continue
			}
			if st, ok := fd.Recv.List[0].Type.(*ast.StarExpr); ok {
				names = append(names, st.X.(*ast.Ident).Name)
			}
		}
	}
	return names
}

func countParams(e Expr) (n int) {
	WalkParams(e, func(*Param) { n++ })
	return n
}

func TestParamSwitchesAreClosed(t *testing.T) {
	declared := exprTypes(t)
	if len(declared) < len(paramNodes) {
		t.Fatalf("found %d Expr types in the source, the table has %d", len(declared), len(paramNodes))
	}
	vals := []types.Value{types.IntVal(10), types.IntVal(20), types.IntVal(30)}
	for _, name := range declared {
		row, ok := paramNodes[name]
		if !ok {
			t.Errorf("expr.%s has no row in paramNodes: decide its slots in WalkParams and substParams", name)
			continue
		}
		n := 0
		tmpl := row.build(func() Expr { n++; return NewParam(n) })
		if got := reflect.TypeOf(tmpl).Elem().Name(); got != name {
			t.Fatalf("row %s builds a %s", name, got)
		}
		if n != row.slots || countParams(tmpl) != row.slots {
			t.Errorf("%s: built with %d slots, WalkParams sees %d, want %d", name, n, countParams(tmpl), row.slots)
		}
		before := tmpl.String()
		bound, err := SubstParams(tmpl, vals)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if left := countParams(bound); left != 0 {
			t.Errorf("%s: %d slots survive SubstParams: %s", name, left, bound)
		}
		if tmpl.String() != before {
			t.Errorf("%s: SubstParams changed its input: %s -> %s", name, before, tmpl)
		}
		for i := 0; i < row.slots; i++ {
			if want := vals[i].String(); !strings.Contains(bound.String(), want) {
				t.Errorf("%s: $%d's value %s is missing from %s", name, i+1, want, bound)
			}
		}
		// Without a slot under it the node is shared, not rebuilt.
		free := row.build(func() Expr { return NewCol(1, "b") })
		if name == "Param" {
			continue
		}
		if same, err := SubstParams(free, vals); err != nil || same != free {
			t.Errorf("%s without slots: SubstParams returned %v, %v; want the node itself", name, same, err)
		}
		// Every EXECUTE walks the parameter-free parts of its template too.
		if n := testing.AllocsPerRun(10, func() { SubstParams(free, vals) }); n != 0 {
			t.Errorf("%s without slots: SubstParams allocates %v times", name, n)
		}
		// Rebase is the other closed switch: every column moves down, and
		// a column below the cut refuses the move.
		if row.slots > 0 {
			if _, ok := Rebase(free, 2); ok {
				t.Errorf("%s: Rebase past column 1 succeeded", name)
			}
			moved, ok := Rebase(free, 1)
			if _, still := Rebase(moved, 1); !ok || still {
				t.Errorf("%s: Rebase by 1 did not move its columns to 0", name)
			}
			if free.String() != moved.String() {
				t.Errorf("%s: Rebase changed more than indexes: %s -> %s", name, free, moved)
			}
		}
	}
	if _, err := SubstParams(NewParam(4), vals); err == nil {
		t.Error("$4 with three values: want an error")
	}
}
