package engine_test

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/types"
)

// gen draws random statements over one database. Every choice comes
// from its seeded rng, so a seed and a statement index name a statement.
type gen struct {
	rng *rand.Rand
	db  *odb
}

func (g *gen) chance(n int) bool { return g.rng.Intn(n) == 0 }

func (s *stmt) mark(f string) { s.feats[f] = true }

// newParam makes a $n slot for v, the value the ad-hoc text prints in
// its place.
func (s *stmt) newParam(v types.Value) *param {
	p := &param{n: len(s.params) + 1, v: v}
	s.params = append(s.params, p)
	return p
}

// literalOr is v as a literal, or one time in six as a $n slot.
func (g *gen) literalOr(s *stmt, v types.Value) node {
	if g.chance(6) {
		return s.newParam(v)
	}
	return &lit{v}
}

func (s *stmt) ref(pos, col int) *colRef {
	f := s.from[pos]
	c := f.t.sch.Cols[col]
	return &colRef{pos: pos, alias: f.alias, col: col, name: c.Name, k: c.Kind}
}

// column picks a random column of the table at pos whose kind is one of
// kinds (any kind when none are given), or nil.
func (g *gen) column(s *stmt, pos int, kinds ...types.Kind) *colRef {
	var ok []int
	for i, c := range s.from[pos].t.sch.Cols {
		for _, k := range kinds {
			if c.Kind == k {
				ok = append(ok, i)
			}
		}
		if len(kinds) == 0 {
			ok = append(ok, i)
		}
	}
	if len(ok) == 0 {
		return nil
	}
	return s.ref(pos, ok[g.rng.Intn(len(ok))])
}

// sample is the value of column c in a random row of its table: a
// literal that some row matches.
func (g *gen) sample(s *stmt, c *colRef) types.Value {
	rows := s.from[c.pos].t.rows
	return rows[g.rng.Intn(len(rows))][c.col]
}

// near is a sampled value, sometimes moved off it by a little.
func (g *gen) near(s *stmt, c *colRef) types.Value {
	v := g.sample(s, c)
	if g.chance(3) {
		switch v.Kind {
		case types.Int64, types.Date:
			v.I += int64(g.rng.Intn(5) - 2)
		case types.Float64:
			v.F += float64(g.rng.Intn(9)-4) / 4
		}
	}
	return v
}

var kindName = map[types.Kind]string{types.Int64: "int", types.Float64: "float", types.Date: "date", types.String: "char"}

var numeric = []types.Kind{types.Int64, types.Float64}

// statement draws one statement; a pinned one also pins a partition
// key (pin).
func (g *gen) statement(pinned bool) *stmt {
	s := &stmt{limit: -1, feats: map[string]bool{}}
	g.from(s)
	s.nJoin = len(s.where)
	for n := g.rng.Intn(4); n > 0; n-- {
		pos := g.rng.Intn(len(s.from))
		if len(s.from) > 1 && g.chance(4) {
			s.where = append(s.where, g.residual(s))
		} else {
			s.where = append(s.where, g.pred(s, pos, 2))
		}
	}
	if pinned {
		s.where = append(s.where, g.pin(s))
	}
	if g.chance(2) {
		g.aggregate(s)
	} else {
		g.project(s)
	}
	g.orderLimit(s)
	s.dropUnusedParams()
	return s
}

// dropUnusedParams forgets the $n slots of expressions the generator
// drew and then discarded (a duplicate GROUP BY key, an aggregate
// argument that read the wrong table) and renumbers the rest: a slot
// the text does not hold would be an argument too many.
func (s *stmt) dropUnusedParams() {
	used := map[*param]bool{}
	see := func(n node) {
		walk(n, func(x node) {
			if p, ok := x.(*param); ok {
				used[p] = true
			}
		})
	}
	for _, w := range s.where {
		see(w)
	}
	for _, k := range s.groupBy {
		see(k)
	}
	for _, it := range s.items {
		see(it.e)
	}
	if s.having != nil {
		see(s.having)
	}
	for _, o := range s.order {
		if o.scale != nil {
			see(o.scale)
		}
	}
	kept := s.params[:0]
	for _, p := range s.params {
		if used[p] {
			p.n = len(kept) + 1
			kept = append(kept, p)
		}
	}
	s.params = kept
}

// from picks one to three tables joined along key edges, in a FROM
// order in which every table after the first has an edge to one before
// it (what a left-deep join needs), and adds the join conjuncts.
func (g *gen) from(s *stmt) {
	var tables []*otable
	var edges []edge
	switch n := g.rng.Intn(20); {
	case n < 10:
		tables = []*otable{g.db.tables[g.rng.Intn(len(g.db.tables))]}
	case n < 16:
		e := g.db.edges[g.rng.Intn(len(g.db.edges))]
		edges = []edge{e}
		tables = []*otable{g.db.table(e.a), g.db.table(e.b)}
	default:
		for len(tables) < 3 {
			e1 := g.db.edges[g.rng.Intn(len(g.db.edges))]
			var next []edge
			for _, e := range g.db.edges {
				touches := e.a == e1.a || e.a == e1.b || e.b == e1.a || e.b == e1.b
				within := (e.a == e1.a || e.a == e1.b) && (e.b == e1.a || e.b == e1.b)
				if touches && !within {
					next = append(next, e)
				}
			}
			if len(next) == 0 {
				continue
			}
			e2 := next[g.rng.Intn(len(next))]
			edges = []edge{e1, e2}
			tables = []*otable{g.db.table(e1.a), g.db.table(e1.b)}
			for _, name := range []string{e2.a, e2.b} {
				if name != e1.a && name != e1.b {
					tables = append(tables, g.db.table(name))
				}
			}
		}
	}
	s.mark(fmt.Sprintf("join:%d", len(tables)))
	orders := joinOrders(tables, edges)
	for i, t := range orders[g.rng.Intn(len(orders))] {
		s.from = append(s.from, fromItem{t: t, alias: fmt.Sprintf("t%d", i)})
	}
	at := func(name string) int {
		for i, f := range s.from {
			if f.t.name == name {
				return i
			}
		}
		panic(name)
	}
	for _, e := range edges {
		a, b := at(e.a), at(e.b)
		for _, pr := range e.pairs {
			var l, r node = s.ref(a, s.from[a].t.col(pr[0])), s.ref(b, s.from[b].t.col(pr[1]))
			if g.chance(2) {
				l, r = r, l
			}
			if l.kind() == types.Int64 && g.chance(6) {
				// A computed key: its side hashes by the integer it
				// yields, like a column side, but the join compares key
				// bytes. An offset of 0 is a literal, so the computed
				// side meets a column side row for row; -1 and 1 are a
				// $n in the key expressions of the join and of the
				// repartition below it.
				var by node = &lit{iv(0)}
				if v := g.rng.Intn(3) - 1; v != 0 {
					by = s.newParam(iv(v))
				}
				r = &arith{op: '+', l: r, r: by}
				s.mark("join-key:computed")
			}
			s.where = append(s.where, &cmp{op: "=", l: l, r: r})
		}
	}
}

// joinOrders lists the orders of tables in which each table after the
// first shares an edge with one before it.
func joinOrders(tables []*otable, edges []edge) [][]*otable {
	linked := func(a, b *otable) bool {
		for _, e := range edges {
			if e.a == a.name && e.b == b.name || e.a == b.name && e.b == a.name {
				return true
			}
		}
		return false
	}
	var out [][]*otable
	var perm func(done []*otable, rest []*otable)
	perm = func(done, rest []*otable) {
		if len(rest) == 0 {
			out = append(out, append([]*otable(nil), done...))
			return
		}
		for i, t := range rest {
			ok := len(done) == 0
			for _, d := range done {
				ok = ok || linked(d, t)
			}
			if !ok {
				continue
			}
			others := append(append([]*otable(nil), rest[:i]...), rest[i+1:]...)
			perm(append(done, t), others)
		}
	}
	perm(nil, tables)
	return out
}

// pred draws a predicate over the table at pos; depth bounds OR/NOT
// nesting.
func (g *gen) pred(s *stmt, pos, depth int) node {
	shapes := 6
	if depth > 0 {
		shapes = 8
	}
	switch g.rng.Intn(shapes) {
	case 0, 1:
		return g.cmpConst(s, pos)
	case 2:
		a := g.column(s, pos)
		var kinds []types.Kind
		if a.k == types.Int64 || a.k == types.Float64 {
			kinds = numeric
		} else {
			kinds = []types.Kind{a.k}
		}
		b := g.column(s, pos, kinds...)
		s.mark("pred:cmp-col")
		return &cmp{op: g.cmpOp(), l: a, r: b}
	case 3:
		c := g.column(s, pos, types.Int64, types.Float64, types.Date)
		lo, hi := g.near(s, c), g.near(s, c)
		if order(lo, hi) > 0 && !g.chance(8) {
			lo, hi = hi, lo
		}
		s.mark("pred:between")
		return &between{e: c, lo: &lit{lo}, hi: &lit{hi}}
	case 4:
		c := g.column(s, pos, types.Int64, types.Date, types.String)
		var list []types.Value
		for n := 1 + g.rng.Intn(4); n > 0; n-- {
			list = append(list, g.near(s, c))
		}
		s.mark("pred:in")
		x := &in{e: c, list: list, negate: g.chance(4)}
		if x.negate {
			s.mark("pred:not")
		}
		return x
	case 5:
		if c := g.column(s, pos, types.String); c != nil {
			if l := g.like(s, c); l != nil {
				return l
			}
		}
		return g.cmpConst(s, pos)
	case 6:
		s.mark("pred:or")
		return &logic{terms: []node{g.pred(s, pos, depth-1), g.pred(s, pos, depth-1)}}
	}
	s.mark("pred:not")
	return &not{g.pred(s, pos, depth-1)}
}

// pin is a conjunct on the partition key of one FROM table (the first
// column of a composite key): = or IN over keys the table holds and keys
// it does not, a float equal to a stored integer key, or a $n. On a
// one-column key of the constant's own kind the engine reads only the
// partitions of the constants' owners; the answer must not show it.
func (g *gen) pin(s *stmt) node {
	pos := g.rng.Intn(len(s.from))
	t := s.from[pos].t
	key, composite := g.db.partKey(t.name)
	if composite {
		s.mark("pin:composite")
	}
	c := s.ref(pos, key)
	present := func() types.Value { return t.rows[g.rng.Intn(len(t.rows))][key] }
	absent := func() types.Value {
		v := present()
		for {
			v.I += int64(1 + g.rng.Intn(7))
			if !t.holds(key, v) {
				return v
			}
		}
	}
	draw := func() types.Value {
		if c.k == types.Int64 && g.chance(3) {
			s.mark("pin:absent")
			return absent()
		}
		return present()
	}
	switch n := g.rng.Intn(6); {
	case n < 3:
		v := draw()
		s.mark("pin:=")
		if g.chance(3) {
			s.mark("pin:$n")
			return &cmp{op: "=", l: c, r: s.newParam(v)}
		}
		return &cmp{op: "=", l: c, r: &lit{v}}
	case n < 5:
		var list []types.Value
		for k := 1 + g.rng.Intn(4); k > 0; k-- {
			list = append(list, draw())
		}
		s.mark("pin:in")
		return &in{e: c, list: list}
	}
	if c.k != types.Int64 {
		s.mark("pin:=")
		return &cmp{op: "=", l: c, r: &lit{present()}}
	}
	// A float against the integer key: equal to a stored key (a $n of
	// it is an integer once bound) or half a step off every key.
	s.mark("pin:other-kind")
	f := float64(present().I)
	if g.chance(2) {
		s.mark("pin:$n")
		return &cmp{op: "=", l: c, r: s.newParam(fv(f))}
	}
	if g.chance(3) {
		f += 0.5
	}
	return &cmp{op: "=", l: c, r: &lit{fv(f)}}
}

func (g *gen) cmpOp() string {
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	return ops[g.rng.Intn(len(ops))]
}

// cmpConst is column op literal (or op $n, which reaches the scan's
// predicate).
func (g *gen) cmpConst(s *stmt, pos int) node {
	c := g.column(s, pos)
	s.mark("pred:cmp-const-" + kindName[c.k])
	return &cmp{op: g.cmpOp(), l: c, r: g.literalOr(s, g.near(s, c))}
}

// like matches a prefix, suffix or infix of a stored value, sometimes
// with one byte left to _, sometimes negated; nil if the value it drew
// is empty.
func (g *gen) like(s *stmt, c *colRef) node {
	v := g.sample(s, c).S
	if v == "" {
		return nil
	}
	n := 1 + g.rng.Intn(min(len(v), 4))
	var pat, shape string
	switch g.rng.Intn(3) {
	case 0:
		pat, shape = v[:n]+"%", "prefix"
	case 1:
		pat, shape = "%"+v[len(v)-n:], "suffix"
	default:
		i := g.rng.Intn(len(v) - n + 1)
		pat, shape = "%"+v[i:i+n]+"%", "infix"
	}
	if g.chance(4) {
		i := strings.IndexFunc(pat, func(r rune) bool { return r != '%' })
		pat = pat[:i] + "_" + pat[i+1:]
	}
	negate := g.chance(3)
	if negate {
		s.mark("pred:not-like")
	} else {
		s.mark("pred:like-" + shape)
	}
	return newLike(c, pat, negate)
}

// residual is a predicate over two tables that is not an equality, so
// it stays a filter above the join instead of becoming a join key.
// (Every table has an integer column.)
func (g *gen) residual(s *stmt) node {
	a := g.rng.Intn(len(s.from))
	b := (a + 1 + g.rng.Intn(len(s.from)-1)) % len(s.from)
	x, y := g.column(s, a, numeric...), g.column(s, b, numeric...)
	s.mark("pred:cmp-col")
	if g.chance(2) {
		ops := []string{"<>", "<", "<=", ">", ">="}
		return &cmp{op: ops[g.rng.Intn(len(ops))], l: x, r: y}
	}
	sum := &arith{op: '+', l: x, r: y}
	bound := (&arith{op: '+', l: &lit{g.sample(s, x)}, r: &lit{g.sample(s, y)}}).eval(nil)
	return &cmp{op: "<", l: sum, r: g.literalOr(s, bound)}
}

// scalar draws a value expression over the table at pos: a column,
// arithmetic, a date shift, a CASE or an EXTRACT.
func (g *gen) scalar(s *stmt, pos int) node {
	switch g.rng.Intn(8) {
	case 0, 1:
		if a := g.column(s, pos, numeric...); a != nil {
			var b node
			if g.chance(2) {
				b = g.column(s, g.rng.Intn(len(s.from)), numeric...)
			}
			if b == nil {
				b = g.numLit(a.k)
			}
			s.mark("proj:arith")
			return &arith{op: "+-*"[g.rng.Intn(3)], l: a, r: b}
		}
	case 2:
		if d := g.column(s, pos, types.Date); d != nil {
			s.mark("proj:arith")
			return &arith{op: "+-"[g.rng.Intn(2)], l: d, r: &lit{iv(g.rng.Intn(100))}}
		}
	case 3, 4:
		return g.caseWhen(s, pos)
	case 5:
		if d := g.column(s, pos, types.Date); d != nil {
			s.mark("proj:extract")
			return &extract{month: g.chance(2), e: d}
		}
	}
	return g.column(s, pos)
}

// numLit is a small literal of kind k (a float a multiple of 1/4).
func (g *gen) numLit(k types.Kind) node {
	if k == types.Float64 {
		return &lit{fv(float64(g.rng.Intn(41)-20) / 4)}
	}
	return &lit{iv(g.rng.Intn(21) - 10)}
}

// caseWhen is a CASE whose arms share a kind: two integers, two floats,
// two strings, or a column and a literal of its kind.
func (g *gen) caseWhen(s *stmt, pos int) node {
	s.mark("proj:case")
	cond := g.pred(s, pos, 0)
	var then, els node
	switch g.rng.Intn(4) {
	case 0:
		then, els = &lit{iv(g.rng.Intn(10))}, &lit{iv(g.rng.Intn(10))}
	case 1:
		then, els = g.numLit(types.Float64), g.numLit(types.Float64)
	case 2:
		then, els = &lit{sv("lo")}, &lit{sv("high")}
	default:
		c := g.column(s, pos)
		then, els = c, &lit{g.sample(s, c)}
	}
	if g.chance(2) {
		then, els = els, then
	}
	return &caseWhen{conds: []node{cond}, thens: []node{then}, els: els}
}

// project makes a plain SELECT list.
func (g *gen) project(s *stmt) {
	for n := 1 + g.rng.Intn(4); n > 0; n-- {
		pos := g.rng.Intn(len(s.from))
		var e node
		if c := g.column(s, pos, numeric...); c != nil && g.chance(10) {
			e = &arith{op: '+', l: c, r: s.newParam(g.numVal(c.k))}
		} else if g.chance(10) {
			e = g.nullable(s, pos)
		} else {
			e = g.scalar(s, pos)
		}
		s.items = append(s.items, item{e: e, alias: fmt.Sprintf("c%d", len(s.items))})
	}
}

// numVal is a small value of kind k.
func (g *gen) numVal(k types.Kind) types.Value {
	return g.numLit(k).(*lit).v
}

// aggregate makes a GROUP BY (of zero to three keys) with aggregates,
// and sometimes a HAVING. Over two tables, one time in two the keys are
// columns of one table and every aggregate reads the other: when the
// keys' table is the join's build side, the join aggregates per build
// row.
func (g *gen) aggregate(s *stmt) {
	s.agg = true
	keyPos, argPos := -1, -1
	if len(s.from) == 2 && g.chance(2) {
		keyPos = g.rng.Intn(2)
		argPos = 1 - keyPos
	}
	nk := []int{0, 0, 0, 1, 1, 1, 1, 2, 2, 3}[g.rng.Intn(10)]
	seen := map[string]bool{}
	for tries := 0; len(s.groupBy) < nk && tries < 20; tries++ {
		var k node
		if keyPos >= 0 {
			k = g.column(s, keyPos)
		} else {
			k = g.groupKey(s)
		}
		if txt := k.sql(&printer{}); !seen[txt] {
			seen[txt] = true
			s.groupBy = append(s.groupBy, k)
		}
	}
	s.mark(fmt.Sprintf("groupby:%d", len(s.groupBy)))
	for i, k := range s.groupBy {
		if k.kind() == types.String {
			s.mark("group-key:char")
		}
		if _, ok := k.(*colRef); !ok {
			s.mark("group-key:computed")
		}
		if g.rng.Intn(10) < 7 {
			s.items = append(s.items, item{e: &keyRef{i: i, e: k}})
		}
	}
	for n := 1 + g.rng.Intn(3); n > 0; n-- {
		var e node = g.aggCall(s, argPos)
		if g.chance(8) && e.kind() != types.String && e.kind() != types.Date {
			e = &arith{op: '+', l: e, r: g.numLit(e.kind())}
		}
		s.items = append(s.items, item{e: e})
	}
	for i := range s.items {
		s.items[i].alias = fmt.Sprintf("c%d", i)
	}
	if g.chance(4) {
		g.having(s)
	}
}

// groupKey is a column, or a computed key: an EXTRACT, a CASE over
// strings, or integer arithmetic (sometimes with a $n).
func (g *gen) groupKey(s *stmt) node {
	pos := g.rng.Intn(len(s.from))
	switch g.rng.Intn(6) {
	case 0:
		if d := g.column(s, pos, types.Date); d != nil {
			return &extract{month: g.chance(2), e: d}
		}
	case 1:
		return &caseWhen{conds: []node{g.pred(s, pos, 0)}, thens: []node{&lit{sv("yes")}}, els: &lit{sv("no")}}
	case 2:
		if c := g.column(s, pos, types.Int64); c != nil {
			return &arith{op: '+', l: c, r: g.literalOr(s, iv(g.rng.Intn(5)))}
		}
	}
	return g.column(s, pos)
}

// aggCall draws one aggregate over a column or an expression; over the
// table at only when that is not -1.
func (g *gen) aggCall(s *stmt, only int) *aggCall {
	pos := g.rng.Intn(len(s.from))
	if only >= 0 {
		pos = only
	}
	fn := []string{"count", "count", "sum", "avg", "min", "max"}[g.rng.Intn(6)]
	var arg node
	switch {
	case fn != "count" && g.chance(5) || fn == "count" && g.chance(8):
		arg = g.nullable(s, pos)
	case fn == "count":
		if g.chance(2) {
			s.mark("agg:count*")
			return &aggCall{fn: "count"}
		}
		arg = g.column(s, pos)
	case fn == "sum" || fn == "avg":
		c := g.column(s, pos, numeric...)
		if c == nil {
			s.mark("agg:count*")
			return &aggCall{fn: "count"}
		}
		arg = c
		switch g.rng.Intn(5) {
		case 0:
			arg = &arith{op: '*', l: c, r: s.newParam(g.numVal(c.k))}
		case 1, 2:
			arg = g.scalar(s, pos)
			if arg.kind() != types.Int64 && arg.kind() != types.Float64 {
				arg = c
			}
		}
	default:
		arg = g.column(s, pos)
		if g.chance(3) {
			arg = g.scalar(s, pos)
		}
	}
	if ps := positions(arg); only >= 0 && (len(ps) != 1 || ps[0] != only) {
		// The expression read the other table through its second operand
		// (scalar's arithmetic), so its first is a number of this one.
		arg = g.column(s, only, numeric...)
	}
	s.mark("agg:" + fn)
	walk(arg, func(n node) {
		if a, ok := n.(*arith); ok && a.op == '/' {
			s.mark("agg:over-div")
		}
	})
	if _, ok := arg.(*colRef); !ok {
		s.mark("agg:over-expr")
	}
	return &aggCall{fn: fn, arg: arg}
}

// nullable divides a number of the table at pos by zero on the rows
// where another of its columns holds a sampled value: NULL there, and on
// every row of a group keyed by that column. One time in two the
// divisor is 1, 2, 4 or -2 elsewhere, so the quotients stay exact and
// their sums agree in any order; otherwise it is the column minus the
// value, a shape the engine runs as a fused kernel, whose quotients
// are not exact (having keeps HAVING away from them).
func (g *gen) nullable(s *stmt, pos int) node {
	a := g.column(s, pos, numeric...)
	s.mark("proj:div")
	if g.chance(2) {
		b := g.column(s, pos, numeric...)
		return &arith{op: '/', l: a, r: &arith{op: '-', l: b, r: &lit{g.sample(s, b)}}}
	}
	b := g.column(s, pos)
	div := &caseWhen{conds: []node{&cmp{op: "=", l: b, r: &lit{g.sample(s, b)}}},
		thens: []node{&lit{iv(0)}}, els: &lit{iv([]int{1, 2, 4, -2}[g.rng.Intn(4)])}}
	return &arith{op: '/', l: a, r: div}
}

// inexact reports whether e divides by something other than a CASE of
// exact divisors (nullable): its sums depend on the order of addition.
func inexact(e node) bool {
	found := false
	walk(e, func(n node) {
		if a, ok := n.(*arith); ok && a.op == '/' {
			if _, exact := a.r.(*caseWhen); !exact {
				found = true
			}
		}
	})
	return found
}

// having keeps the groups whose aggregate passes a bound taken from one
// group's own value, so the filter neither keeps nor drops everything
// by construction. The bound is compared exactly, so the aggregate is
// not one whose value depends on the order its rows were added in.
func (g *gen) having(s *stmt) {
	var a *aggCall
	for _, it := range s.items {
		if x, ok := it.e.(*aggCall); ok && x.kind() != types.String && x.kind() != types.Date && !inexact(x) {
			a = x
		}
	}
	if a == nil || g.chance(3) {
		a = &aggCall{fn: "count"}
	}
	groups := s.groups()
	if len(groups) == 0 {
		return
	}
	bound := a.eval(&ectx{grp: groups[g.rng.Intn(len(groups))]})
	ops := []string{"<", "<=", ">", ">="}
	s.having = &cmp{op: ops[g.rng.Intn(len(ops))], l: a, r: g.literalOr(s, bound)}
	s.mark("having")
}

// orderLimit adds ORDER BY output columns (sometimes one scaled by a
// $n) and a LIMIT.
func (g *gen) orderLimit(s *stmt) {
	if g.rng.Intn(20) < 7 {
		used := map[int]bool{}
		for n := 1 + g.rng.Intn(2); n > 0; n-- {
			col := g.rng.Intn(len(s.items))
			if used[col] {
				continue
			}
			used[col] = true
			o := orderKey{col: col, desc: g.chance(2)}
			if k := s.items[col].e.kind(); (k == types.Int64 || k == types.Float64) && g.chance(5) {
				o.scale = s.newParam(g.numVal(k))
			}
			s.order = append(s.order, o)
		}
		if g.chance(2) {
			s.limit = 1 + g.rng.Intn(20)
			s.mark("order+limit")
		} else {
			s.mark("order")
		}
	} else if g.chance(12) {
		s.limit = 1 + g.rng.Intn(20)
		s.mark("limit")
	}
}
