package plan

import (
	"strings"
	"testing"

	"repro/internal/types"
)

func TestCompileCountsParams(t *testing.T) {
	p := compile(t, "SELECT count(*) FROM trades WHERE sec_code = $1 AND trade_date = $2")
	if p.NumParams != 2 {
		t.Fatalf("NumParams = %d, want 2", p.NumParams)
	}
	if compile(t, "SELECT count(*) FROM trades").NumParams != 0 {
		t.Fatal("parameter-free plan reports parameters")
	}
	// The slot tables are sized by the highest $n: a number no EXECUTE
	// could ever reach is refused at compile time, not allocated for.
	if _, err := Compile("SELECT count(*) FROM trades WHERE sec_code = $70000", testCatalog()); err == nil {
		t.Error("$70000 compiled; want an error")
	}
}

// TestCoerceArgsTouchesNothing: the common EXECUTE converts nothing and
// gets its own slice back; one that converts gets a copy; neither the
// caller's slice nor the template changes.
func TestCoerceArgsTouchesNothing(t *testing.T) {
	p := compile(t, "SELECT count(*) FROM trades WHERE sec_code = $1 AND order_price > $2")
	before := p.String()

	same := []types.Value{types.IntVal(600036), types.FloatVal(9.5)}
	got, err := p.CoerceArgs(same)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &same[0] {
		t.Error("nothing to convert, yet CoerceArgs returned a copy")
	}

	widen := []types.Value{types.IntVal(600036), types.IntVal(10)}
	got, err = p.CoerceArgs(widen)
	if err != nil {
		t.Fatal(err)
	}
	if got[1] != types.FloatVal(10) || got[0] != widen[0] {
		t.Errorf("coerced to %v, want [600036 10.0]", got)
	}
	if widen[1] != types.IntVal(10) {
		t.Error("CoerceArgs wrote into the caller's slice")
	}
	if after := p.String(); after != before {
		t.Fatalf("CoerceArgs changed the template:\nbefore: %s\nafter:  %s", before, after)
	}
}

func TestCoerceArgsArity(t *testing.T) {
	p := compile(t, "SELECT count(*) FROM trades WHERE sec_code = $1 AND trade_time < $2")
	if _, err := p.CoerceArgs([]types.Value{types.IntVal(1)}); err == nil {
		t.Error("short arg list: want error")
	}
	if _, err := p.CoerceArgs([]types.Value{types.IntVal(1), types.IntVal(2), types.IntVal(3)}); err == nil {
		t.Error("long arg list: want error")
	}
	pf := compile(t, "SELECT count(*) FROM trades")
	if got, err := pf.CoerceArgs(nil); err != nil || len(got) != 0 {
		t.Errorf("parameter-free plan with no args: %v, %v", got, err)
	}
	if _, err := pf.CoerceArgs([]types.Value{types.IntVal(1)}); err == nil {
		t.Error("args for parameter-free plan: want error")
	}
}

func TestCoerceArgsKinds(t *testing.T) {
	// $1 compares against a Date column: a string argument in date form
	// must coerce; garbage must not.
	p := compile(t, "SELECT count(*) FROM trades WHERE trade_date = $1")
	got, err := p.CoerceArgs([]types.Value{types.StrVal("2010-10-30")})
	if err != nil {
		t.Fatal(err)
	}
	if want := types.DateVal(types.MustParseDate("2010-10-30")); got[0] != want {
		t.Errorf("string arg coerced to %v, want %v", got[0], want)
	}
	if _, err := p.CoerceArgs([]types.Value{types.StrVal("not-a-date")}); err == nil {
		t.Error("bad date string: want error")
	}

	// A slot under date arithmetic is a date too.
	p = compile(t, "SELECT count(*) FROM trades WHERE trade_date < $1 + interval '1' month")
	if got, err := p.CoerceArgs([]types.Value{types.StrVal("2010-10-30")}); err != nil || got[0].Kind != types.Date {
		t.Errorf("date-arithmetic slot: %v, %v; want a date", got, err)
	}
}

// TestValueSlotsDeliverTheirSchemaKind: a slot whose kind reached an
// output schema must be given exactly that kind — Int64 when nothing
// typed it further — while a slot that only meets another slot in a
// predicate still takes whatever it is given.
func TestValueSlotsDeliverTheirSchemaKind(t *testing.T) {
	p := compile(t, "SELECT acct_id, $1 FROM trades WHERE sec_code = 3")
	if got, err := p.CoerceArgs([]types.Value{types.IntVal(7)}); err != nil || got[0] != types.IntVal(7) {
		t.Errorf("(7): %v, %v", got, err)
	}
	for _, bad := range []types.Value{types.StrVal("hello"), types.FloatVal(1.5)} {
		if _, err := p.CoerceArgs([]types.Value{bad}); err == nil {
			t.Errorf("(%v) accepted for a slot the schema calls int64", bad)
		}
	}

	free := compile(t, "SELECT count(*) FROM trades WHERE $1 = $2")
	strs := []types.Value{types.StrVal("a"), types.StrVal("a")}
	if got, err := free.CoerceArgs(strs); err != nil || got[0] != strs[0] {
		t.Errorf("two strings for $1 = $2: %v, %v", got, err)
	}

	// The projected instance says int64, the arithmetic one float64: no
	// single argument kind satisfies both schemas.
	_, err := Compile("SELECT $1, $1 + 1.5 FROM trades", testCatalog())
	if err == nil || !strings.Contains(err.Error(), "cannot infer the type of $1") {
		t.Errorf("conflicting value kinds: err = %v", err)
	}
}
