package session

import (
	"context"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/types"
)

// countingBackend wraps Direct and counts CompileCached calls, so tests
// can observe when a session recompiles versus reusing its pinned plan.
type countingBackend struct {
	Direct
	compiles int
}

func (b *countingBackend) CompileCached(q string) (*plan.Plan, bool, error) {
	b.compiles++
	return b.Direct.CompileCached(q)
}

// fixture builds a session over a 2-node cluster with a small trades
// table, returning the catalog so tests can bump its version.
func fixture(t *testing.T) (*Session, *countingBackend, *catalog.Catalog) {
	t.Helper()
	cat := catalog.New(2)
	sch := types.NewSchema(
		types.Col("acct_id", types.Int64),
		types.Col("sec_code", types.Int64),
		types.Col("trade_volume", types.Float64),
	)
	cat.MustAdd(&catalog.Table{Name: "trades", Schema: sch, PartKey: []int{1}})
	c := engine.NewCluster(engine.Config{Nodes: 2, CoresPerNode: 2}, cat)
	t.Cleanup(c.Close)
	tl, err := c.NewTableLoader("trades")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		r := tl.Row()
		types.PutValue(r, sch, 0, types.IntVal(int64(i%17)))
		types.PutValue(r, sch, 1, types.IntVal(int64(i%7)))
		types.PutValue(r, sch, 2, types.FloatVal(float64(i)))
		tl.Add()
	}
	tl.Close()
	b := &countingBackend{Direct: Direct{C: c}}
	return New(b), b, cat
}

// rowsOf renders a result order-insensitively.
func rowsOf(t *testing.T, r *engine.Result) string {
	t.Helper()
	if r == nil {
		return "<nil>"
	}
	var rows []string
	for _, vals := range r.Rows() {
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = v.String()
		}
		rows = append(rows, strings.Join(parts, "|"))
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// TestExecDispatch drives the whole textual lifecycle: PREPARE pins the
// statement, EXECUTE matches the equivalent ad-hoc SELECT, DEALLOCATE
// drops it, and plain SELECTs pass straight through to the backend.
func TestExecDispatch(t *testing.T) {
	s, _, _ := fixture(t)
	ctx := context.Background()

	res, err := s.Exec(ctx, "PREPARE lookup AS SELECT acct_id, trade_volume FROM trades WHERE sec_code = $1")
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatalf("PREPARE returned a result set: %v", res)
	}
	if got := s.Prepared(); len(got) != 1 || got[0] != "lookup" {
		t.Fatalf("Prepared() = %v, want [lookup]", got)
	}
	if n, err := s.NumParams("lookup"); err != nil || n != 1 {
		t.Fatalf("NumParams = %d, %v; want 1, nil", n, err)
	}

	exec, err := s.Exec(ctx, "EXECUTE lookup (3)")
	if err != nil {
		t.Fatal(err)
	}
	adhoc, err := s.Exec(ctx, "SELECT acct_id, trade_volume FROM trades WHERE sec_code = 3")
	if err != nil {
		t.Fatal(err)
	}
	if er, ar := rowsOf(t, exec), rowsOf(t, adhoc); er != ar {
		t.Errorf("EXECUTE and ad-hoc results differ:\n%s\nvs\n%s", er, ar)
	}
	if exec.NumRows() == 0 {
		t.Error("EXECUTE returned no rows")
	}

	if res, err := s.Exec(ctx, "DEALLOCATE lookup"); err != nil || res != nil {
		t.Fatalf("DEALLOCATE: res=%v err=%v", res, err)
	}
	if _, err := s.Exec(ctx, "EXECUTE lookup (3)"); err == nil {
		t.Error("EXECUTE after DEALLOCATE should fail")
	}
}

// TestExecuteLiteralArgs covers the literal forms EXECUTE accepts —
// negatives, floats, strings — and the rejection of non-literals.
func TestExecuteLiteralArgs(t *testing.T) {
	s, _, _ := fixture(t)
	ctx := context.Background()

	if _, err := s.Exec(ctx, "PREPARE p AS SELECT count(*) FROM trades WHERE acct_id > $1 AND trade_volume > $2"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec(ctx, "EXECUTE p (-1, 10.5)")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 {
		t.Fatalf("want one aggregate row, got %d", res.NumRows())
	}

	if _, err := s.Exec(ctx, "EXECUTE p (acct_id, 1)"); err == nil {
		t.Error("column reference as EXECUTE argument should fail")
	}
	if _, err := s.Exec(ctx, "EXECUTE p (1)"); err == nil {
		t.Error("wrong argument count should fail")
	}
}

// TestExecuteProjectedParam: a slot that is projected rather than
// compared has no context to type it, so the output schema calls it
// int64 — and EXECUTE must then deliver an int64 or refuse, never
// reinterpret a string or truncate a float into that column.
func TestExecuteProjectedParam(t *testing.T) {
	s, _, _ := fixture(t)
	ctx := context.Background()
	if _, err := s.Exec(ctx, "PREPARE a AS SELECT acct_id, $1 FROM trades WHERE sec_code = 3"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec(ctx, "EXECUTE a (7)")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() == 0 {
		t.Fatal("EXECUTE a (7) returned no rows")
	}
	for _, row := range res.Rows() {
		if row[1] != types.IntVal(7) {
			t.Fatalf("projected $1 = %v, want 7", row[1])
		}
	}
	for _, bad := range []string{"EXECUTE a ('hello')", "EXECUTE a (1.5)"} {
		if res, err := s.Exec(ctx, bad); err == nil {
			t.Errorf("%s: want an error, got rows\n%s", bad, rowsOf(t, res))
		}
	}

	// Slots that only meet each other take what they are given.
	if _, err := s.Exec(ctx, "PREPARE eq AS SELECT count(*) FROM trades WHERE $1 = $2"); err != nil {
		t.Fatal(err)
	}
	res, err = s.Exec(ctx, "EXECUTE eq ('x', 'x')")
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsOf(t, res); got != "200" {
		t.Errorf("EXECUTE eq ('x', 'x') counted %s rows, want 200", got)
	}
}

// TestStalenessRecompile is the DDL-safety property: an EXECUTE that
// finds the catalog version moved recompiles the pinned plan instead of
// running the stale one.
func TestStalenessRecompile(t *testing.T) {
	s, b, cat := fixture(t)
	ctx := context.Background()

	if _, err := s.Prepare("q", "SELECT count(*) FROM trades WHERE sec_code = $1"); err != nil {
		t.Fatal(err)
	}
	base := b.compiles

	// Same version: EXECUTE must reuse the pinned plan, no compile.
	if _, err := s.Execute(ctx, "q", []types.Value{types.IntVal(2)}); err != nil {
		t.Fatal(err)
	}
	if b.compiles != base {
		t.Fatalf("EXECUTE at same catalog version recompiled (%d compiles)", b.compiles-base)
	}

	// Bumped version: exactly one recompile, then pinned again.
	cat.BumpVersion()
	if _, err := s.Execute(ctx, "q", []types.Value{types.IntVal(2)}); err != nil {
		t.Fatal(err)
	}
	if b.compiles != base+1 {
		t.Fatalf("EXECUTE after catalog bump: %d compiles, want 1", b.compiles-base)
	}
	if _, err := s.Execute(ctx, "q", []types.Value{types.IntVal(2)}); err != nil {
		t.Fatal(err)
	}
	if b.compiles != base+1 {
		t.Fatalf("EXECUTE after recompile pinned nothing: %d compiles", b.compiles-base)
	}
}

// TestIsSessionStmt pins the keyword sniff: statement keywords in any
// case dispatch to the session, lookalike identifiers do not.
func TestIsSessionStmt(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want bool
	}{
		{"PREPARE p AS SELECT 1", true},
		{"  prepare p AS SELECT 1", true},
		{"Execute p (1)", true},
		{"DEALLOCATE\tp", true},
		{"SELECT * FROM trades", false},
		{"preparex FROM trades", false},
		{"EXECUTE", false}, // bare keyword, no name
	} {
		if got := isSessionStmt(tc.in); got != tc.want {
			t.Errorf("isSessionStmt(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
