package sql

import (
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"reflect"
	"testing"
)

// rewriteNodes decides, for every node type, how many child positions
// it has and builds the node with a distinct child ($1, $2, …) in each
// of them. Rewrite is the closed switch over exactly these types: a new
// node fails TestRewriteIsClosed until it has a row here, which is to
// say until someone has decided where its children sit.
var rewriteNodes = map[string]struct {
	children int
	build    func(child func() Expr) Expr
}{
	"ColRef":      {0, func(func() Expr) Expr { return &ColRef{Name: "a"} }},
	"IntLit":      {0, func(func() Expr) Expr { return &IntLit{V: 1} }},
	"FloatLit":    {0, func(func() Expr) Expr { return &FloatLit{V: 1.5} }},
	"StrLit":      {0, func(func() Expr) Expr { return &StrLit{V: "x"} }},
	"DateLit":     {0, func(func() Expr) Expr { return &DateLit{Days: 1, Raw: "1970-01-02"} }},
	"IntervalLit": {0, func(func() Expr) Expr { return &IntervalLit{N: 3, Unit: "month"} }},
	"ParamRef":    {1, func(c func() Expr) Expr { return c() }},
	"BinExpr":     {2, func(c func() Expr) Expr { return &BinExpr{Op: "+", L: c(), R: c()} }},
	"NotExpr":     {1, func(c func() Expr) Expr { return &NotExpr{E: c()} }},
	"NegExpr":     {1, func(c func() Expr) Expr { return &NegExpr{E: c()} }},
	"LikeExpr":    {1, func(c func() Expr) Expr { return &LikeExpr{E: c(), Pattern: "a%"} }},
	"BetweenExpr": {3, func(c func() Expr) Expr { return &BetweenExpr{E: c(), Lo: c(), Hi: c()} }},
	"InExpr":      {3, func(c func() Expr) Expr { return &InExpr{E: c(), List: []Expr{c(), c()}} }},
	"CaseExpr": {5, func(c func() Expr) Expr {
		return &CaseExpr{Whens: []WhenClause{{Cond: c(), Then: c()}, {Cond: c(), Then: c()}}, Else: c()}
	}},
	"FuncExpr":    {2, func(c func() Expr) Expr { return &FuncExpr{Name: "f", Args: []Expr{c(), c()}} }},
	"ExtractExpr": {1, func(c func() Expr) Expr { return &ExtractExpr{Part: "year", E: c()} }},
}

// nodeTypes reads the package's source and returns the name of every
// type with an exprNode method — every node of the Expr tree.
func nodeTypes(t *testing.T) []string {
	t.Helper()
	pkgs, err := goparser.ParseDir(gotoken.NewFileSet(), ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range pkgs["sql"].Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "exprNode" {
				continue
			}
			if st, ok := fd.Recv.List[0].Type.(*ast.StarExpr); ok {
				names = append(names, st.X.(*ast.Ident).Name)
			}
		}
	}
	return names
}

func TestRewriteIsClosed(t *testing.T) {
	declared := nodeTypes(t)
	if len(declared) < len(rewriteNodes) {
		t.Fatalf("found %d node types in the source, the table has %d", len(declared), len(rewriteNodes))
	}
	claimNothing := func(Expr) (Expr, bool) { return nil, false }
	for _, name := range declared {
		row, ok := rewriteNodes[name]
		if !ok {
			t.Errorf("sql.%s has no row in rewriteNodes: decide its children in Rewrite", name)
			continue
		}
		n := 0
		tmpl := row.build(func() Expr { n++; return &ParamRef{N: n} })
		if got := reflect.TypeOf(tmpl).Elem().Name(); got != name {
			t.Fatalf("row %s builds a %s", name, got)
		}
		// Walk reaches every child position: each distinct slot once.
		seen := map[int]int{}
		Walk(tmpl, func(e Expr) {
			if p, ok := e.(*ParamRef); ok {
				seen[p.N]++
			}
		})
		if n != row.children || len(seen) != row.children {
			t.Errorf("%s: built with %d children, Walk sees %v, want %d", name, n, seen, row.children)
		}
		// A rewrite of every slot reaches each of them and leaves the
		// input as it was.
		before := tmpl.String()
		out := Rewrite(tmpl, func(e Expr) (Expr, bool) {
			if p, ok := e.(*ParamRef); ok {
				return &IntLit{V: int64(100 + p.N)}, true
			}
			return nil, false
		})
		left := 0
		Walk(out, func(e Expr) {
			if _, ok := e.(*ParamRef); ok {
				left++
			}
		})
		if left != 0 || tmpl.String() != before {
			t.Errorf("%s: Rewrite left %d slots in %s, input %s -> %s", name, left, out, before, tmpl)
		}
		// A rewrite that claims nothing is the node itself, for free.
		if Rewrite(tmpl, claimNothing) != tmpl {
			t.Errorf("%s: a rewrite that claims nothing rebuilt the node", name)
		}
		if allocs := testing.AllocsPerRun(10, func() {
			Rewrite(tmpl, claimNothing)
			Walk(tmpl, func(Expr) {})
		}); allocs != 0 {
			t.Errorf("%s: a rewrite that claims nothing, or a walk, allocates %v times", name, allocs)
		}
	}
}
