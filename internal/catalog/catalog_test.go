package catalog

import (
	"testing"

	"repro/internal/types"
)

func table(name string) *Table {
	return &Table{
		Name:    name,
		Schema:  types.NewSchema(types.Col("id", types.Int64)),
		PartKey: []int{0},
		Stats:   TableStats{Rows: 100},
	}
}

func TestAddLookup(t *testing.T) {
	c := New(4)
	if err := c.Add(table("Orders")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Lookup("ORDERS") // case-insensitive
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "Orders" {
		t.Fatalf("name = %q", got.Name)
	}
	if _, err := c.Lookup("missing"); err == nil {
		t.Fatal("lookup of unknown table should fail")
	}
}

func TestDuplicateRejected(t *testing.T) {
	c := New(2)
	c.MustAdd(table("t"))
	if err := c.Add(table("T")); err == nil {
		t.Fatal("case-insensitive duplicate should be rejected")
	}
}

func TestNamesSorted(t *testing.T) {
	c := New(2)
	c.MustAdd(table("zeta"))
	c.MustAdd(table("alpha"))
	names := c.Names()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Fatalf("names = %v", names)
	}
}

func TestPartCols(t *testing.T) {
	tbl := &Table{
		Name: "t",
		Schema: types.NewSchema(
			types.Col("a", types.Int64), types.Col("b", types.Int64)),
		PartKey: []int{1},
	}
	cols := tbl.PartCols()
	if len(cols) != 1 || cols[0] != "b" {
		t.Fatalf("part cols = %v", cols)
	}
}

func TestNodesFloor(t *testing.T) {
	if c := New(0); c.Nodes != 1 {
		t.Fatalf("nodes = %d, want floor of 1", c.Nodes)
	}
}

// TestColNDV is the one rule behind every "bare column name → NDV"
// lookup (planner group estimate, admission estimate, simulator): the
// qualifier is dropped, case is ignored, every table is searched in
// name order, and a column without statistics is reported as unknown so
// each caller applies its own guess.
func TestColNDV(t *testing.T) {
	c := New(2)
	a := table("alpha")
	a.Stats.Cols = map[string]ColStats{"acct_id": {NDV: 500}, "empty": {}}
	z := table("zeta")
	z.Stats.Cols = map[string]ColStats{"Acct_ID": {NDV: 9}, "sec_code": {NDV: 50}}
	c.MustAdd(z)
	c.MustAdd(a)

	cases := []struct {
		name string
		ndv  int64
		ok   bool
	}{
		{"sec_code", 50, true},
		{"zeta.sec_code", 50, true}, // qualified
		{"t.SEC_CODE", 50, true},    // alias-qualified, other case
		{"Sec_Code", 50, true},
		{"acct_id", 500, true}, // in both tables: first in name order
		{"ACCT_ID", 500, true},
		{"empty", 0, false}, // registered without an NDV
		{"missing", 0, false},
		{"", 0, false},
	}
	for _, tc := range cases {
		if ndv, ok := c.ColNDV(tc.name); ndv != tc.ndv || ok != tc.ok {
			t.Errorf("ColNDV(%q) = %d, %v; want %d, %v", tc.name, ndv, ok, tc.ndv, tc.ok)
		}
	}
}
