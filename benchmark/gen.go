package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/types"
)

// stmt is one generated statement and the reply it must get.
type stmt struct {
	id   int    // index into workload.ids
	text string // SQL sent as text, or the PREPAREd template on prepared workloads
	args []types.Value
	want check
}

// keyAgg is one row of the per-key oracle table (keyTableSQL).
type keyAgg struct {
	cnt, acct, time int64
	price, vol      float64
}

// generator holds a workload's statement table and deals seeded
// per-connection streams from it. The engine sees only these
// statements; the seed never reaches it.
type generator struct {
	w     *workload
	stmts []stmt
}

// newLookupGenerator builds the statement table of the two lookup
// workloads from the oracle table: one EXECUTE per distinct key, or the
// seeded pool of distinct ad-hoc texts.
func newLookupGenerator(w *workload, seed int64, table map[int64]keyAgg) (*generator, error) {
	keys := make([]int64, 0, len(table))
	for k := range table {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if len(keys) == 0 {
		return nil, fmt.Errorf("%s: no keys in trades", w.name)
	}
	g := &generator{w: w}
	if w.prepared {
		for _, k := range keys {
			a := table[k]
			g.stmts = append(g.stmts, stmt{
				text: lookupSQL + "$1",
				args: []types.Value{types.IntVal(k)},
				want: check{rows: a.cnt, isum: a.acct, fsum: a.price + a.vol},
			})
		}
		return g, nil
	}
	var err error
	g.stmts, err = adhocStatements(w, seed, keys, table)
	return g, err
}

// adhocStatements draws adhocPool distinct texts: seven in eight are
// lookups whose literal and select list vary, one in eight is a small
// GROUP BY over four keys.
func adhocStatements(w *workload, seed int64, keys []int64, table map[int64]keyAgg) ([]stmt, error) {
	const groupBys = adhocPool / 8
	const variants = 3
	if variants*len(keys) < adhocPool-groupBys || len(keys) < 8 {
		return nil, fmt.Errorf("%s: %d keys cannot make %d distinct texts", w.name, len(keys), adhocPool)
	}
	lookup, groupby := w.idIndex("lookup"), w.idIndex("groupby")
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, adhocPool)
	out := make([]stmt, 0, adhocPool)
	for len(out) < adhocPool {
		var s stmt
		if len(out)%8 == 7 {
			picked := map[int64]bool{}
			var lits []string
			s.id = groupby
			for len(picked) < 4 {
				k := keys[rng.Intn(len(keys))]
				if picked[k] {
					continue
				}
				picked[k] = true
				a := table[k]
				lits = append(lits, fmt.Sprint(k))
				s.want.rows++
				s.want.isum += k + a.cnt
				s.want.fsum += a.vol
			}
			s.text = "SELECT sec_code, count(*), sum(trade_volume) FROM trades WHERE sec_code IN (" +
				strings.Join(lits, ", ") + ") GROUP BY sec_code"
		} else {
			k := keys[rng.Intn(len(keys))]
			a := table[k]
			s.id = lookup
			s.want.rows = a.cnt
			switch rng.Intn(variants) {
			case 0:
				s.text = lookupSQL + fmt.Sprint(k)
				s.want.isum, s.want.fsum = a.acct, a.price+a.vol
			case 1:
				s.text = fmt.Sprintf("SELECT acct_id, trade_time, trade_volume FROM trades WHERE sec_code = %d", k)
				s.want.isum, s.want.fsum = a.acct+a.time, a.vol
			default:
				s.text = fmt.Sprintf("SELECT acct_id, trade_volume FROM trades WHERE sec_code = %d", k)
				s.want.isum, s.want.fsum = a.acct, a.vol
			}
		}
		if !seen[s.text] {
			seen[s.text] = true
			out = append(out, s)
		}
	}
	return out, nil
}

// newAnalyticGenerator builds the statement table of an analytic
// workload: one fixed text per id, checked against refs.
func newAnalyticGenerator(w *workload, refs map[string]check) *generator {
	g := &generator{w: w}
	for i, id := range w.ids {
		g.stmts = append(g.stmts, stmt{id: i, text: analyticSQL[id], want: refs[id]})
	}
	return g
}

// stream returns connection conn's statement sequence for seed. Lookup
// workloads draw uniformly from the table. Analytic workloads run every
// id once per rotation in a seeded order, so each id gets the same
// number of samples; a second connection runs the same rotation offset
// by two, so the two never start on the same statement.
func (g *generator) stream(seed int64, conn int) func() *stmt {
	if !g.w.tpch {
		rng := rand.New(rand.NewSource(seed*7919 + int64(conn) + 1))
		return func() *stmt { return &g.stmts[rng.Intn(len(g.stmts))] }
	}
	rng := rand.New(rand.NewSource(seed))
	n := len(g.stmts)
	var perm []int
	at := n
	return func() *stmt {
		if at == n {
			perm, at = rng.Perm(n), 0
		}
		s := &g.stmts[perm[(at+2*conn)%n]]
		at++
		return s
	}
}

// sequenceHash fingerprints the first n statements of every
// connection's stream: text and arguments, in order.
func (g *generator) sequenceHash(seed int64, n int) uint64 {
	h := fnv.New64a()
	for conn := 0; conn < g.w.conns; conn++ {
		next := g.stream(seed, conn)
		for i := 0; i < n; i++ {
			s := next()
			fmt.Fprintf(h, "%d|%s|%v\n", conn, s.text, s.args)
		}
	}
	return h.Sum64()
}
