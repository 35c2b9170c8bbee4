package plan

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/sql"
	"repro/internal/types"
)

// groupedSeeds are grouped statements whose BETWEEN, IN and LIKE sit
// above the aggregation: over an aggregate in HAVING, or over a group
// key in the SELECT list.
var groupedSeeds = []string{
	"SELECT acct_id, count(*) AS n FROM trades GROUP BY acct_id HAVING count(*) BETWEEN 10 AND 20",
	"SELECT acct_id, count(*) AS n FROM trades GROUP BY acct_id HAVING count(*) IN (15, 16)",
	"SELECT sec_code, sec_code IN (1, 2, 3) AS lowsec, count(*) FROM trades GROUP BY sec_code",
	"SELECT sec_code, sec_code BETWEEN 1 AND 3 AS lowsec, count(*) FROM trades GROUP BY sec_code",
	"SELECT l_returnflag, l_returnflag LIKE 'A%', sum(l_quantity) FROM lineitem GROUP BY l_returnflag",
}

// parseSeeds reads the string literals of FuzzParse's corpus (fuzzSeeds
// in the sql package's fuzz test), so both fuzzers start from one list.
func parseSeeds(f *testing.F) []string {
	file, err := parser.ParseFile(token.NewFileSet(), "../sql/fuzz_test.go", nil, 0)
	if err != nil {
		f.Fatal(err)
	}
	var seeds []string
	ast.Inspect(file, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok || spec.Names[0].Name != "fuzzSeeds" {
			return true
		}
		for _, el := range spec.Values[0].(*ast.CompositeLit).Elts {
			s, err := strconv.Unquote(el.(*ast.BasicLit).Value)
			if err != nil {
				f.Fatal(err)
			}
			seeds = append(seeds, s)
		}
		return false
	})
	if len(seeds) == 0 {
		f.Fatal("no fuzzSeeds in ../sql/fuzz_test.go")
	}
	return seeds
}

// FuzzCompile asserts the planner is panic-free on whatever the parser
// accepts, over a catalog with Int64, Float64, Date and CHAR columns,
// and that a compiled plan renders and holds no expression a rewrite
// that claims nothing would rebuild.
func FuzzCompile(f *testing.F) {
	for _, s := range append(parseSeeds(f), groupedSeeds...) {
		f.Add(s)
	}
	cat := testCatalog()
	cat.MustAdd(&catalog.Table{
		Name: "t",
		Schema: types.NewSchema(types.Col("a", types.Int64), types.Col("b", types.Float64),
			types.Col("d", types.Date), types.Char("s", 8)),
		PartKey: []int{0},
	})
	claimNothing := func(expr.Expr) (expr.Expr, bool) { return nil, false }
	f.Fuzz(func(t *testing.T, input string) {
		stmt, err := sql.Parse(input)
		if err != nil {
			return
		}
		p, err := CompileStmt(stmt, cat)
		if err != nil {
			return
		}
		_ = p.String()
		p.WalkExprs(func(role string, _ *types.Schema, e expr.Expr, keys []expr.Expr) {
			for _, x := range append([]expr.Expr{e}, keys...) {
				if y := expr.Rewrite(x, claimNothing); y != x {
					t.Fatalf("%q: a rewrite that claims nothing rebuilt %s (%s)", input, x, role)
				}
			}
		})
	})
}
