package engine_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/sse"
	"repro/internal/tpch"
	"repro/internal/types"
)

// The oracle's databases: the rows the test generates itself, kept as
// values for the evaluator and loaded into every cluster under test
// through the table loader.

// otable is one table: its catalog schema and the generated rows.
type otable struct {
	name string
	sch  *types.Schema
	rows []row
	// uniq are columns whose values together are unique per row.
	uniq []int
}

// col returns the index of the named column.
func (t *otable) col(name string) int {
	for i, c := range t.sch.Cols {
		if c.Name == name {
			return i
		}
	}
	panic(fmt.Sprintf("%s has no column %s", t.name, name))
}

// edge is a join path: equal values in the paired columns of a and b.
type edge struct {
	a, b  string
	pairs [][2]string
}

// holds reports whether a row of t holds v in column col.
func (t *otable) holds(col int, v types.Value) bool {
	for _, r := range t.rows {
		if order(r[col], v) == 0 {
			return true
		}
	}
	return false
}

// odb is one database: the tables in load order, the catalog they are
// registered in, and the key edges the generator joins along.
type odb struct {
	tables   []*otable
	register func(*catalog.Catalog)
	edges    []edge
	partKeys map[string][]int // by table, read from the catalog on first use
}

// partKey returns the first column of a table's partition key, and
// whether the key has more than one.
func (db *odb) partKey(name string) (col int, composite bool) {
	if db.partKeys == nil {
		cat := catalog.New(1)
		db.register(cat)
		db.partKeys = map[string][]int{}
		for _, t := range db.tables {
			tbl, err := cat.Lookup(t.name)
			if err != nil {
				panic(err)
			}
			db.partKeys[t.name] = tbl.PartKey
		}
	}
	k := db.partKeys[name]
	return k[0], len(k) > 1
}

func (db *odb) table(name string) *otable {
	for _, t := range db.tables {
		if t.name == name {
			return t
		}
	}
	panic("no table " + name)
}

// cluster loads db into the cluster newCluster builds over a fresh
// catalog.
func (db *odb) cluster(t testing.TB, nodes int, newCluster func(*catalog.Catalog) (*engine.Cluster, error)) *engine.Cluster {
	t.Helper()
	cat := catalog.New(nodes)
	db.register(cat)
	c, err := newCluster(cat)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for _, tb := range db.tables {
		tl, err := c.NewTableLoader(tb.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tb.rows {
			rec := tl.Row()
			for i, v := range r {
				types.PutValue(rec, tb.sch, i, v)
			}
			tl.Add()
		}
		tl.Close()
	}
	return c
}

// Value helpers. Floats are multiples of 1/4 (or 1/64) so every sum and
// product the statements take is exact, whatever order a parallel
// aggregation adds in.
func iv(n int) types.Value     { return types.IntVal(int64(n)) }
func fv(f float64) types.Value { return types.FloatVal(f) }
func sv(s string) types.Value  { return types.StrVal(s) }
func dv(d int64) types.Value   { return types.DateVal(d) }
func quarter(rng *rand.Rand, lo, hi int) types.Value {
	return fv(float64(lo+rng.Intn(hi-lo)) / 4)
}

func pick(rng *rand.Rand, vals ...string) types.Value { return sv(vals[rng.Intn(len(vals))]) }

// words strings together vocabulary words up to width bytes.
func words(rng *rand.Rand, width int) types.Value {
	vocab := []string{"quick", "final", "pending", "ironic", "blue", "special", "requests",
		"deposits", "bold", "slyly", "even", "furious", "regular", "packages", "red", "khaki"}
	var b strings.Builder
	for {
		w := vocab[rng.Intn(len(vocab))]
		if b.Len() > 0 {
			w = " " + w
		}
		if b.Len()+len(w) > width || b.Len() > 0 && rng.Intn(4) == 0 {
			return sv(b.String())
		}
		b.WriteString(w)
	}
}

// epochDay is the day number of a date, by the time package.
func epochDay(date string) int64 {
	return mustDate(date).Unix() / 86400
}

// tpchSSE is the generated suite's database: the TPC-H and SSE catalog
// schemas with a few hundred to ~1.2 k rows a table, small value
// domains so predicates and joins hit, keys that leave some rows of
// every join without a partner, and table sizes within 3× of each
// other along most edges, so a filter on one side flips the join's
// build side.
func tpchSSE(seed int64) *odb {
	rng := rand.New(rand.NewSource(seed))
	d0 := epochDay("1992-01-01")
	report := epochDay("2010-10-30")
	modes := []string{"AIR", "MAIL", "SHIP", "TRUCK", "RAIL", "FOB", "REG AIR"}
	db := &odb{register: func(cat *catalog.Catalog) {
		// The NDVs of SF 0.1 make a group-by on l_orderkey take the
		// repartitioning plan and one on l_returnflag the two-phase one.
		tpch.RegisterTables(cat, 0.1)
		sse.RegisterTables(cat, 1000)
	}}
	add := func(name string, sch *types.Schema, n int, uniq []string, gen func(i int) row) {
		t := &otable{name: name, sch: sch}
		for i := 0; i < n; i++ {
			t.rows = append(t.rows, gen(i))
		}
		for _, u := range uniq {
			t.uniq = append(t.uniq, t.col(u))
		}
		db.tables = append(db.tables, t)
	}

	// lineitem: 1-4 lines per order key, keys advancing by 1 or 2 to
	// ~700, so some orders have no lines and some lines no order.
	var lines []row
	for key := 1; len(lines) < 1200; key += 1 + rng.Intn(2) {
		for ln := 1; ln <= 1+rng.Intn(4) && len(lines) < 1200; ln++ {
			ship := d0 + int64(rng.Intn(2400))
			lines = append(lines, row{iv(key), iv(1 + rng.Intn(270)), iv(1 + rng.Intn(65)), iv(ln),
				fv(float64(1 + rng.Intn(50))), quarter(rng, 400, 8400),
				fv(float64(rng.Intn(7)) / 64), fv(float64(rng.Intn(6)) / 64),
				pick(rng, "A", "N", "R"), pick(rng, "F", "O"),
				dv(ship), dv(ship + int64(rng.Intn(61)-30)), dv(ship + 1 + int64(rng.Intn(30))),
				pick(rng, modes...)})
		}
	}
	add("lineitem", tpch.LineitemSchema(), len(lines), []string{"l_orderkey", "l_linenumber"},
		func(i int) row { return lines[i] })
	add("orders", tpch.OrdersSchema(), 500, []string{"o_orderkey"}, func(i int) row {
		return row{iv(i + 1), iv(1 + rng.Intn(320)), pick(rng, "F", "O", "P"), quarter(rng, 4000, 400000),
			dv(d0 + int64(rng.Intn(2400))),
			pick(rng, "1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"),
			iv(rng.Intn(2)), words(rng, 44)}
	})
	segments := []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
	add("customer", tpch.CustomerSchema(), 300, []string{"c_custkey"}, func(i int) row {
		nation := rng.Intn(25)
		return row{iv(i + 1), sv(fmt.Sprintf("Customer#%09d", i+1)), iv(nation),
			sv(fmt.Sprintf("%02d-%03d-%03d-%04d", 10+nation, rng.Intn(1000), rng.Intn(1000), rng.Intn(10000))),
			quarter(rng, -4000, 40000), pick(rng, segments...)}
	})
	syllables := [][]string{{"STANDARD", "SMALL", "MEDIUM", "LARGE", "PROMO"},
		{"ANODIZED", "BURNISHED", "PLATED", "POLISHED"}, {"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}}
	add("part", tpch.PartSchema(), 250, []string{"p_partkey"}, func(i int) row {
		typ := make([]string, 3)
		for j := range typ {
			typ[j] = syllables[j][rng.Intn(len(syllables[j]))]
		}
		mfgr := 1 + rng.Intn(5)
		return row{iv(i + 1), words(rng, 34), sv(fmt.Sprintf("Manufacturer#%d", mfgr)),
			sv(fmt.Sprintf("Brand#%d%d", mfgr, 1+rng.Intn(5))), sv(strings.Join(typ, " ")),
			iv(1 + rng.Intn(50)), quarter(rng, 3600, 8000)}
	})
	add("supplier", tpch.SupplierSchema(), 60, []string{"s_suppkey"}, func(i int) row {
		return row{iv(i + 1), sv(fmt.Sprintf("Supplier#%09d", i+1)), iv(rng.Intn(25)), quarter(rng, -4000, 40000)}
	})
	// (ps_partkey, ps_suppkey) is unique: rows i, i+250, i+500 share a
	// part and their suppliers lie 21 apart (mod 60).
	add("partsupp", tpch.PartsuppSchema(), 600, []string{"ps_partkey", "ps_suppkey"}, func(i int) row {
		return row{iv(1 + i%250), iv(1 + (i*7+i/250*11)%60), iv(1 + rng.Intn(9999)), quarter(rng, 4, 4000)}
	})
	add("nation", tpch.NationSchema(), len(tpch.Nations), []string{"n_nationkey"}, func(i int) row {
		return row{iv(i), sv(tpch.Nations[i].Name), iv(tpch.Nations[i].Region)}
	})
	add("region", tpch.RegionSchema(), len(tpch.Regions), []string{"r_regionkey"}, func(i int) row {
		return row{iv(i), sv(tpch.Regions[i])}
	})
	add("securities", sse.SecuritiesSchema(), 500, []string{"order_no"}, func(i int) row {
		return row{iv(i), iv(rng.Intn(80)), iv(600000 + rng.Intn(40)), dv(report - int64(rng.Intn(20))),
			quarter(rng, 0, 40000)}
	})
	// trade_time is unique: 37 is prime to the 86 400 seconds of a day.
	add("trades", sse.TradesSchema(), 1000, []string{"trade_time"}, func(i int) row {
		return row{iv(rng.Intn(80)), iv(600000 + rng.Intn(40)), dv(report - int64(rng.Intn(20))),
			iv(i * 37 % 86400), quarter(rng, 0, 400), quarter(rng, 0, 40000)}
	})

	one := func(a, ac, b, bc string) edge { return edge{a: a, b: b, pairs: [][2]string{{ac, bc}}} }
	db.edges = []edge{
		one("lineitem", "l_orderkey", "orders", "o_orderkey"),
		one("orders", "o_custkey", "customer", "c_custkey"),
		one("lineitem", "l_partkey", "part", "p_partkey"),
		one("lineitem", "l_suppkey", "supplier", "s_suppkey"),
		one("partsupp", "ps_partkey", "part", "p_partkey"),
		one("partsupp", "ps_suppkey", "supplier", "s_suppkey"),
		one("customer", "c_nationkey", "nation", "n_nationkey"),
		one("supplier", "s_nationkey", "nation", "n_nationkey"),
		one("nation", "n_regionkey", "region", "r_regionkey"),
		one("trades", "acct_id", "securities", "acct_id"),
		one("trades", "sec_code", "securities", "sec_code"),
		{a: "lineitem", b: "partsupp", pairs: [][2]string{{"l_partkey", "ps_partkey"}, {"l_suppkey", "ps_suppkey"}}},
		{a: "trades", b: "securities", pairs: [][2]string{{"acct_id", "acct_id"}, {"trade_date", "entry_date"}}},
	}
	return db
}

// tradesAccounts is the fixed cases' database: trades, securities and a
// CHAR-bearing accounts table.
func tradesAccounts() *odb {
	trades := types.NewSchema(
		types.Col("acct_id", types.Int64),
		types.Col("sec_code", types.Int64),
		types.Col("trade_date", types.Date),
		types.Col("trade_volume", types.Float64),
	)
	secs := types.NewSchema(
		types.Col("acct_id", types.Int64),
		types.Col("sec_code", types.Int64),
		types.Col("entry_date", types.Date),
		types.Col("entry_volume", types.Float64),
	)
	accounts := types.NewSchema(
		types.Col("acct_id", types.Int64),
		types.Char("name", 12),
		types.Char("region", 8),
		types.Col("balance", types.Float64),
	)
	rng := rand.New(rand.NewSource(42))
	day := epochDay("2010-10-30")
	db := &odb{register: func(cat *catalog.Catalog) {
		cat.MustAdd(&catalog.Table{Name: "trades", Schema: trades, PartKey: []int{1}})
		cat.MustAdd(&catalog.Table{Name: "securities", Schema: secs, PartKey: []int{0}})
		cat.MustAdd(&catalog.Table{Name: "accounts", Schema: accounts, PartKey: []int{0}})
	}}
	t := &otable{name: "trades", sch: trades}
	for i := 0; i < 3000; i++ {
		t.rows = append(t.rows, row{iv(rng.Intn(500)), iv(rng.Intn(50)), dv(day - int64(rng.Intn(5))),
			fv(float64(rng.Intn(1000)))})
	}
	s := &otable{name: "securities", sch: secs}
	for i := 0; i < 1000; i++ {
		s.rows = append(s.rows, row{iv(rng.Intn(500)), iv(rng.Intn(50)), dv(day - int64(rng.Intn(3))),
			fv(float64(rng.Intn(1000)))})
	}
	a := &otable{name: "accounts", sch: accounts}
	regions := []string{"east", "west", "north", "south"}
	for i := 0; i < 500; i++ {
		a.rows = append(a.rows, row{iv(i), sv(fmt.Sprintf("acct-%04d", i)), sv(regions[rng.Intn(len(regions))]),
			fv(float64(rng.Intn(100000)) / 100)})
	}
	db.tables = []*otable{t, s, a}
	return db
}
