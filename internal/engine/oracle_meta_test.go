package engine_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/types"
)

// Hand-written cases and metamorphic relations on top of the generated
// suite.

// newFixed starts a hand-written statement over db's tables, aliased
// t0, t1, … in FROM order.
func newFixed(db *odb, tables ...string) *stmt {
	s := &stmt{limit: -1, feats: map[string]bool{}}
	for i, name := range tables {
		s.from = append(s.from, fromItem{t: db.table(name), alias: fmt.Sprintf("t%d", i)})
	}
	return s
}

// c is the named column of the table at pos.
func (s *stmt) c(pos int, name string) *colRef { return s.ref(pos, s.from[pos].t.col(name)) }

// selects appends output columns.
func (s *stmt) selects(es ...node) *stmt {
	for _, e := range es {
		s.items = append(s.items, item{e: e, alias: fmt.Sprintf("c%d", len(s.items))})
	}
	return s
}

// filter appends conjuncts; the join's key equalities come first.
func (s *stmt) filter(join int, ws ...node) *stmt {
	s.where, s.nJoin = append(s.where, ws...), join
	return s
}

// grouped makes s an aggregation over keys, selecting each key first.
func (s *stmt) grouped(keys ...node) *stmt {
	s.agg, s.groupBy = true, keys
	for i, k := range keys {
		s.selects(&keyRef{i: i, e: k})
	}
	return s
}

func countStar() *aggCall { return &aggCall{fn: "count"} }

// vecCases are the fused batch-kernel shapes and the per-row fallbacks
// (OR, CASE, NOT) through full distributed plans: filters into selection
// vectors, projection kernels, batch key encoding for joins and
// aggregation, LIKE over CHAR columns.
func vecCases(db *odb) []*stmt {
	trades := func(where func(s *stmt) node) *stmt {
		s := newFixed(db, "trades")
		s.agg = true
		return s.filter(0, where(s)).selects(countStar())
	}
	vol := func(s *stmt) *colRef { return s.c(0, "trade_volume") }
	lt := func(l node, v int) node { return &cmp{op: "<", l: l, r: &lit{iv(v)}} }
	accounts := func(where func(s *stmt) node) *stmt {
		s := newFixed(db, "accounts")
		s.agg = true
		return s.filter(0, where(s)).selects(countStar())
	}
	out := []*stmt{
		// Fused filter shapes: col-op-const over int/float/date, BETWEEN,
		// IN, conjunctions narrowing one selection vector.
		trades(func(s *stmt) node { return lt(vol(s), 700) }),
		trades(func(s *stmt) node {
			return &logic{and: true, terms: []node{&cmp{op: ">=", l: s.c(0, "acct_id"), r: &lit{iv(100)}},
				lt(vol(s), 900), &cmp{op: "<>", l: s.c(0, "sec_code"), r: &lit{iv(7)}}}}
		}),
		trades(func(s *stmt) node { return &between{e: vol(s), lo: &lit{iv(250)}, hi: &lit{iv(750)}} }),
		trades(func(s *stmt) node {
			return &in{e: s.c(0, "sec_code"), list: []types.Value{iv(1), iv(2), iv(3), iv(5), iv(8), iv(13), iv(21)}}
		}),
		// Fallback shapes: disjunction and NOT.
		trades(func(s *stmt) node {
			return &logic{terms: []node{lt(s.c(0, "acct_id"), 50), &cmp{op: ">", l: vol(s), r: &lit{iv(950)}}}}
		}),
		trades(func(s *stmt) node { return &not{lt(vol(s), 500)} }),
		// Column-op-column comparison.
		trades(func(s *stmt) node { return &cmp{op: "<", l: s.c(0, "acct_id"), r: s.c(0, "sec_code")} }),
		// String kernels: LIKE / NOT LIKE over CHAR columns, string
		// comparisons.
		accounts(func(s *stmt) node { return newLike(s.c(0, "name"), "acct%", false) }),
		accounts(func(s *stmt) node { return newLike(s.c(0, "name"), "%7%", true) }),
		accounts(func(s *stmt) node { return &cmp{op: "=", l: s.c(0, "region"), r: &lit{sv("east")}} }),
	}
	// Projection kernels: arithmetic, date EXTRACT; aggregation over
	// computed arguments (fused batch argument kernels).
	s := newFixed(db, "trades")
	s.filter(0, lt(s.c(0, "acct_id"), 300)).grouped(s.c(0, "sec_code")).selects(
		&aggCall{fn: "sum", arg: &arith{op: '*', l: vol(s), r: &lit{fv(0.07)}}},
		&aggCall{fn: "min", arg: &arith{op: '-', l: vol(s), r: &lit{iv(10)}}}, countStar())
	out = append(out, s)
	s = newFixed(db, "trades")
	out = append(out, s.grouped(&extract{e: s.c(0, "trade_date")}).selects(countStar()))
	// CASE rides the per-row fallback inside a vectorized aggregation.
	s = newFixed(db, "trades")
	out = append(out, s.grouped(s.c(0, "sec_code")).selects(&aggCall{fn: "sum", arg: &caseWhen{
		conds: []node{&cmp{op: ">", l: vol(s), r: &lit{iv(500)}}}, thens: []node{&lit{iv(1)}}, els: &lit{iv(0)}}}))
	// String group keys (batch key encoding of CHAR data).
	s = newFixed(db, "accounts")
	out = append(out, s.grouped(s.c(0, "region")).selects(countStar(), &aggCall{fn: "sum", arg: s.c(0, "balance")}))
	// Distributed join with int keys; a join feeding a string group-by.
	s = newFixed(db, "trades", "securities")
	s.filter(1, &cmp{op: "=", l: s.c(0, "acct_id"), r: s.c(1, "acct_id")}, lt(s.c(1, "entry_volume"), 600))
	out = append(out, s.grouped(s.c(0, "sec_code")).selects(countStar()))
	s = newFixed(db, "trades", "accounts")
	s.filter(1, &cmp{op: "=", l: s.c(0, "acct_id"), r: s.c(1, "acct_id")}, &cmp{op: ">", l: vol(s), r: &lit{iv(200)}})
	return append(out, s.grouped(s.c(1, "region")).selects(countStar()))
}

// TestGeneratedFixedCases holds vecCases to the oracle on the
// trades/securities/accounts fixture: EP, SP, and EP under the seeded
// fault schedule (not under -short).
func TestGeneratedFixedCases(t *testing.T) {
	db := tradesAccounts()
	cases := vecCases(db)
	want := make([][]row, len(cases))
	for i, s := range cases {
		want[i] = s.eval()
	}
	for _, mode := range []engine.Mode{engine.EP, engine.SP, -1} {
		name := fmt.Sprint(mode)
		cfg := clusterConfig(engine.EP, false)
		if mode < 0 {
			if testing.Short() {
				continue
			}
			name = "faults"
			cfg.Faults = faults.New(faultSchedule)
		} else {
			cfg.Mode = mode
		}
		t.Run(name, func(t *testing.T) {
			c := db.cluster(t, cfg.Nodes, func(cat *catalog.Catalog) (*engine.Cluster, error) {
				return engine.NewCluster(cfg, cat), nil
			})
			cf := &config{name: name, c: c}
			for i, s := range cases {
				got, err := cf.run(s)
				if err == nil {
					err = check(s, want[i], got)
				}
				if err != nil {
					t.Error(failure(0, i, cf, s, err, want[i], got))
				}
			}
		})
	}
}

// TestComputedJoinKeyMeetsColocatedSide joins orders, repartitioned by
// the computed key o_custkey + 0, to customer, which stays where the
// loader placed it by c_custkey: the two sides meet only if the loader,
// the Sender and the join hash an integer alike whether a column or a
// kernel yields it. The join compares key bytes (one side is computed);
// the oracle checks the answer on every configuration.
func TestComputedJoinKeyMeetsColocatedSide(t *testing.T) {
	db := tpchSSE(1)
	s := newFixed(db, "customer", "orders")
	s.filter(1, &cmp{op: "=", l: &arith{op: '+', l: s.c(1, "o_custkey"), r: &lit{iv(0)}}, r: s.c(0, "c_custkey")})
	s.grouped(s.c(0, "c_nationkey")).selects(countStar(), &aggCall{fn: "sum", arg: s.c(1, "o_totalprice")})
	want := s.eval()
	if len(want) == 0 {
		t.Fatal("the oracle finds no matches")
	}
	cfgs := configurations(t, db)
	p, _, err := cfgs[0].c.CompileCached(s.sql(true))
	if err != nil {
		t.Fatal(err)
	}
	ex := readExplain(p.String())
	if len(ex.joins) != 1 {
		t.Fatalf("want one join:\n%s", p)
	}
	if j := ex.joins[0]; !j.build["customer"] || j.buildRepart || !j.probeRepart || j.word {
		t.Fatalf("want a byte-key join building on customer where it was loaded, probing repartitioned orders:\n%s", p)
	}
	for _, cf := range cfgs {
		got, err := cf.run(s)
		if err == nil {
			err = check(s, want, got)
		}
		if err != nil {
			t.Error(failure(0, 0, cf, s, err, want, got))
		}
	}
}

// TestGeneratedMetamorphic checks relations between the engine's own
// answers to generated statements, which hold even where the oracle and
// the engine might share a misreading of SQL:
//   - partition: count(*) WHERE p plus count(*) WHERE NOT p is count(*)
//     (stored records hold no NULL, so two parts cover every row);
//   - commuting the FROM order gives the same multiset;
//   - under ORDER BY a unique key, LIMIT k is a prefix of LIMIT k+j.
func TestGeneratedMetamorphic(t *testing.T) {
	seeds, perSeed := []int64{1, 2, 3}, 60
	if testing.Short() {
		seeds, perSeed = []int64{1}, 12
	}
	checked := map[string]int{}
	for _, seed := range seeds {
		db := tpchSSE(seed)
		c := db.cluster(t, 3, func(cat *catalog.Catalog) (*engine.Cluster, error) {
			return engine.NewCluster(clusterConfig(engine.EP, false), cat), nil
		})
		cf := &config{name: "EP/inproc/adhoc", c: c}
		// Another stream than TestGeneratedStatements draws from.
		g := &gen{rng: rand.New(rand.NewSource(seed + 100)), db: db}
		for i := 0; i < perSeed; i++ {
			s := g.statement(false)
			fail := func(rel string, err error, q *stmt) {
				t.Errorf("seed %d statement %d, %s: %v\n%s\nderived: %s", seed, i, rel, err, s.sql(false), q.sql(false))
			}
			base, yes, no := partition(g, s)
			if err := countsAdd(cf, base, yes, no); err != nil {
				fail("partition", err, yes)
			}
			checked["partition"]++
			if o := commuted(g.rng, s); o != nil {
				if err := sameAnswer(cf, s, o); err != nil {
					fail("commuted FROM", err, o)
				}
				checked["commuted FROM"]++
			}
			if u := uniqueOrder(g.rng, s); u != nil {
				if err := limitPrefix(cf, u, 1+g.rng.Intn(10), 1+g.rng.Intn(10)); err != nil {
					fail("LIMIT prefix", err, u)
				}
				checked["LIMIT prefix"]++
			}
		}
	}
	t.Logf("relations checked: %v", checked)
}

// partition splits s's WHERE on one conjunct p that is not a join key
// (a fresh predicate when there is none) into count(*) statements over
// everything but p, with p, and with NOT p.
func partition(g *gen, s *stmt) (base, yes, no *stmt) {
	keys, rest := s.where[:s.nJoin], s.where[s.nJoin:]
	var p node
	if len(rest) > 0 {
		k := g.rng.Intn(len(rest))
		p, rest = rest[k], append(append([]node(nil), rest[:k]...), rest[k+1:]...)
	} else {
		draw := &stmt{from: s.from, feats: map[string]bool{}}
		p = g.pred(draw, g.rng.Intn(len(s.from)), 1)
	}
	count := func(extra ...node) *stmt {
		where := append(append(append([]node(nil), keys...), rest...), extra...)
		return &stmt{from: s.from, where: where, nJoin: s.nJoin, agg: true,
			items: []item{{e: countStar(), alias: "c0"}}, limit: -1}
	}
	return count(), count(p), count(&not{p})
}

// countsAdd checks count(yes) + count(no) = count(base).
func countsAdd(cf *config, base, yes, no *stmt) error {
	var n [3]int64
	for i, s := range []*stmt{base, yes, no} {
		rows, err := cf.run(s)
		if err != nil {
			return err
		}
		n[i] = rows[0][0].I
	}
	if n[1]+n[2] != n[0] {
		return fmt.Errorf("%d with p + %d without = %d, want %d", n[1], n[2], n[1]+n[2], n[0])
	}
	return nil
}

// commuted is s with another FROM order in which every table after the
// first still has a join key to one before it; nil if there is none.
// Aliases travel with their tables, so the rest of the text is unchanged.
func commuted(rng *rand.Rand, s *stmt) *stmt {
	if len(s.from) < 2 || s.limit >= 0 {
		return nil
	}
	linked := map[[2]int]bool{}
	for _, w := range s.where[:s.nJoin] {
		ps := positions(w)
		linked[[2]int{ps[0], ps[1]}], linked[[2]int{ps[1], ps[0]}] = true, true
	}
	var orders [][]int
	var perm func(done, rest []int)
	perm = func(done, rest []int) {
		if len(rest) == 0 {
			orders = append(orders, append([]int(nil), done...))
			return
		}
		for i, p := range rest {
			ok := len(done) == 0
			for _, d := range done {
				ok = ok || linked[[2]int{d, p}]
			}
			if ok {
				perm(append(done, p), append(append([]int(nil), rest[:i]...), rest[i+1:]...))
			}
		}
	}
	all := make([]int, len(s.from))
	for i := range all {
		all[i] = i
	}
	perm(nil, all)
	var others [][]int
	for _, o := range orders {
		if fmt.Sprint(o) != fmt.Sprint(all) {
			others = append(others, o)
		}
	}
	if len(others) == 0 {
		return nil
	}
	c := *s
	c.from = nil
	for _, p := range others[rng.Intn(len(others))] {
		c.from = append(c.from, s.from[p])
	}
	return &c
}

// sameAnswer runs two statements and compares their answers as
// multisets.
func sameAnswer(cf *config, a, b *stmt) error {
	ra, err := cf.run(a)
	if err != nil {
		return err
	}
	rb, err := cf.run(b)
	if err != nil {
		return err
	}
	bare := *a
	bare.order = nil
	return check(&bare, ra, rb)
}

// uniqueOrder is s ordered by a unique key: every group key of an
// aggregation (nil without keys), every unique column of every FROM
// table otherwise. Columns the ordering needs are added to the output.
func uniqueOrder(rng *rand.Rand, s *stmt) *stmt {
	u := *s
	u.items = append([]item(nil), s.items...)
	u.order = nil
	sortOn := func(e node) {
		for i, it := range u.items {
			if it.e == e {
				u.order = append(u.order, orderKey{col: i, desc: rng.Intn(2) == 0})
				return
			}
		}
		u.order = append(u.order, orderKey{col: len(u.items), desc: rng.Intn(2) == 0})
		u.items = append(u.items, item{e: e, alias: fmt.Sprintf("c%d", len(u.items))})
	}
	if s.agg {
		if len(s.groupBy) == 0 {
			return nil
		}
		refs := map[int]node{}
		for _, it := range s.items {
			if k, ok := it.e.(*keyRef); ok {
				refs[k.i] = k
			}
		}
		for i, k := range s.groupBy {
			if refs[i] == nil {
				refs[i] = &keyRef{i: i, e: k}
			}
			sortOn(refs[i])
		}
		return &u
	}
	for pos, f := range s.from {
		for _, col := range f.t.uniq {
			sortOn(s.ref(pos, col))
		}
	}
	return &u
}

// limitPrefix checks that u with LIMIT k answers the first rows u with
// LIMIT k+j answers.
func limitPrefix(cf *config, u *stmt, k, j int) error {
	short, long := *u, *u
	short.limit, long.limit = k, k+j
	rs, err := cf.run(&short)
	if err != nil {
		return err
	}
	rl, err := cf.run(&long)
	if err != nil {
		return err
	}
	if want := min(k, len(rl)); len(rs) != want {
		return fmt.Errorf("LIMIT %d gave %d rows, LIMIT %d gave %d", k, len(rs), k+j, len(rl))
	}
	for i := range rs {
		if !sameRow(rs[i], rl[i]) {
			return fmt.Errorf("row %d: LIMIT %d gave %v, LIMIT %d gave %v", i, k, rs[i], k+j, rl[i])
		}
	}
	return nil
}
