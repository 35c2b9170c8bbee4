package engine_test

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/types"
)

// The oracle's query IR. A statement prints itself as SQL (sql) and
// evaluates itself over the rows the test generated (eval), nested loop
// by nested loop, with its own arithmetic, comparisons, LIKE matcher,
// date parts and aggregates. It shares nothing with the engine but the
// types.Value it carries values in: no parser, no planner, no kernel,
// no Value method. The dialect rules it implements are DESIGN.md §10's
// "Dialect rules the oracle implements".

// row is one stored record, or one output row.
type row []types.Value

// printer decides how a statement prints its $n slots: as $n for the
// prepared path, as the literal for the ad-hoc one.
type printer struct{ prepared bool }

// ectx is what an expression evaluates against: the row bound at every
// FROM position, and above an aggregation the current group.
type ectx struct {
	env []row
	grp *group
}

// group is one GROUP BY group: its key values and the bound rows that
// fell into it.
type group struct {
	keys []types.Value
	envs [][]row
}

type node interface {
	sql(p *printer) string
	eval(c *ectx) types.Value
	kind() types.Kind
	children() []node
}

// walk visits n and everything below it.
func walk(n node, fn func(node)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.children() {
		walk(c, fn)
	}
}

// colRef is a column of the table at FROM position pos.
type colRef struct {
	pos   int
	alias string
	col   int
	name  string
	k     types.Kind
}

func (n *colRef) sql(*printer) string      { return n.alias + "." + n.name }
func (n *colRef) eval(c *ectx) types.Value { return c.env[n.pos][n.col] }
func (n *colRef) kind() types.Kind         { return n.k }
func (n *colRef) children() []node         { return nil }

// lit is a literal.
type lit struct{ v types.Value }

func (n *lit) sql(*printer) string    { return sqlLit(n.v) }
func (n *lit) eval(*ectx) types.Value { return n.v }
func (n *lit) kind() types.Kind       { return n.v.Kind }
func (n *lit) children() []node       { return nil }

// param is a $n slot: a literal the prepared path passes as an argument.
type param struct {
	n int
	v types.Value
}

func (n *param) sql(p *printer) string {
	if p.prepared {
		return "$" + strconv.Itoa(n.n)
	}
	return sqlLit(n.v)
}
func (n *param) eval(*ectx) types.Value { return n.v }
func (n *param) kind() types.Kind       { return n.v.Kind }
func (n *param) children() []node       { return nil }

// arith is + - * / over numbers, and date ± days.
type arith struct {
	op   byte
	l, r node
}

func (n *arith) sql(p *printer) string {
	return "(" + n.l.sql(p) + " " + string(n.op) + " " + n.r.sql(p) + ")"
}
func (n *arith) children() []node { return []node{n.l, n.r} }

// kind: integer arithmetic other than division stays integral, a float
// operand or a division makes it float, a date plus or minus days stays
// a date.
func (n *arith) kind() types.Kind {
	lk, rk := n.l.kind(), n.r.kind()
	switch {
	case lk == types.Date && n.op != '*' && n.op != '/':
		return types.Date
	case lk == types.Int64 && rk == types.Int64 && n.op != '/':
		return types.Int64
	}
	return types.Float64
}

// eval: a NULL operand makes the result NULL, and so does a division by
// zero.
func (n *arith) eval(c *ectx) types.Value {
	l, r := n.l.eval(c), n.r.eval(c)
	if l.Null || r.Null || n.op == '/' && num(r) == 0 {
		return types.Value{Kind: n.kind(), Null: true}
	}
	if n.op == '/' {
		return types.FloatVal(num(l) / num(r))
	}
	switch n.kind() {
	case types.Date:
		if n.op == '+' {
			return types.DateVal(l.I + r.I)
		}
		return types.DateVal(l.I - r.I)
	case types.Int64:
		switch n.op {
		case '+':
			return types.IntVal(l.I + r.I)
		case '-':
			return types.IntVal(l.I - r.I)
		}
		return types.IntVal(l.I * r.I)
	}
	a, b := num(l), num(r)
	switch n.op {
	case '+':
		return types.FloatVal(a + b)
	case '-':
		return types.FloatVal(a - b)
	}
	return types.FloatVal(a * b)
}

// num reads an int, date or float value as a float64.
func num(v types.Value) float64 {
	if v.Kind == types.Float64 {
		return v.F
	}
	return float64(v.I)
}

// order compares two values: strings bytewise, everything else by
// numeric value across int, float and date.
func order(a, b types.Value) int {
	if a.Kind == types.String || b.Kind == types.String {
		return strings.Compare(a.S, b.S)
	}
	if a.Kind == types.Float64 || b.Kind == types.Float64 {
		x, y := num(a), num(b)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	}
	switch {
	case a.I < b.I:
		return -1
	case a.I > b.I:
		return 1
	}
	return 0
}

// truth is a predicate's result: 1 or 0, as an integer.
func truth(ok bool) types.Value {
	if ok {
		return types.IntVal(1)
	}
	return types.IntVal(0)
}

func holds(v types.Value) bool { return v.I != 0 }

// cmp is one of = <> < <= > >=.
type cmp struct {
	op   string
	l, r node
}

func (n *cmp) sql(p *printer) string {
	return "(" + n.l.sql(p) + " " + n.op + " " + n.r.sql(p) + ")"
}
func (n *cmp) kind() types.Kind { return types.Int64 }
func (n *cmp) children() []node { return []node{n.l, n.r} }
func (n *cmp) eval(c *ectx) types.Value {
	d := order(n.l.eval(c), n.r.eval(c))
	switch n.op {
	case "=":
		return truth(d == 0)
	case "<>":
		return truth(d != 0)
	case "<":
		return truth(d < 0)
	case "<=":
		return truth(d <= 0)
	case ">":
		return truth(d > 0)
	}
	return truth(d >= 0)
}

// logic is an AND or an OR of its terms.
type logic struct {
	and   bool
	terms []node
}

func (n *logic) sql(p *printer) string {
	sep := " OR "
	if n.and {
		sep = " AND "
	}
	parts := make([]string, len(n.terms))
	for i, t := range n.terms {
		parts[i] = t.sql(p)
	}
	return "(" + strings.Join(parts, sep) + ")"
}
func (n *logic) kind() types.Kind { return types.Int64 }
func (n *logic) children() []node { return n.terms }
func (n *logic) eval(c *ectx) types.Value {
	for _, t := range n.terms {
		if holds(t.eval(c)) != n.and {
			return truth(!n.and)
		}
	}
	return truth(n.and)
}

type not struct{ e node }

func (n *not) sql(p *printer) string    { return "(NOT " + n.e.sql(p) + ")" }
func (n *not) kind() types.Kind         { return types.Int64 }
func (n *not) children() []node         { return []node{n.e} }
func (n *not) eval(c *ectx) types.Value { return truth(!holds(n.e.eval(c))) }

type between struct{ e, lo, hi node }

func (n *between) sql(p *printer) string {
	return "(" + n.e.sql(p) + " BETWEEN " + n.lo.sql(p) + " AND " + n.hi.sql(p) + ")"
}
func (n *between) kind() types.Kind { return types.Int64 }
func (n *between) children() []node { return []node{n.e, n.lo, n.hi} }
func (n *between) eval(c *ectx) types.Value {
	v := n.e.eval(c)
	return truth(order(v, n.lo.eval(c)) >= 0 && order(v, n.hi.eval(c)) <= 0)
}

type in struct {
	e      node
	list   []types.Value
	negate bool
}

func (n *in) sql(p *printer) string {
	parts := make([]string, len(n.list))
	for i, v := range n.list {
		parts[i] = sqlLit(v)
	}
	op := " IN ("
	if n.negate {
		op = " NOT IN ("
	}
	return "(" + n.e.sql(p) + op + strings.Join(parts, ", ") + "))"
}
func (n *in) kind() types.Kind { return types.Int64 }
func (n *in) children() []node { return []node{n.e} }
func (n *in) eval(c *ectx) types.Value {
	v := n.e.eval(c)
	for _, x := range n.list {
		if order(v, x) == 0 {
			return truth(!n.negate)
		}
	}
	return truth(n.negate)
}

// like matches with a regular expression built from the pattern: % is
// any run of bytes, _ any one byte.
type like struct {
	e      node
	pat    string
	negate bool
	re     *regexp.Regexp
}

func newLike(e node, pat string, negate bool) *like {
	var re strings.Builder
	re.WriteString(`(?s)^`)
	for _, ch := range pat {
		switch ch {
		case '%':
			re.WriteString(`.*`)
		case '_':
			re.WriteString(`.`)
		default:
			re.WriteString(regexp.QuoteMeta(string(ch)))
		}
	}
	re.WriteString(`$`)
	return &like{e: e, pat: pat, negate: negate, re: regexp.MustCompile(re.String())}
}

func (n *like) sql(p *printer) string {
	op := " LIKE "
	if n.negate {
		op = " NOT LIKE "
	}
	return "(" + n.e.sql(p) + op + sqlLit(types.StrVal(n.pat)) + ")"
}
func (n *like) kind() types.Kind { return types.Int64 }
func (n *like) children() []node { return []node{n.e} }
func (n *like) eval(c *ectx) types.Value {
	return truth(n.re.MatchString(n.e.eval(c).S) != n.negate)
}

// caseWhen is a searched CASE with an ELSE; its arms are of one kind.
type caseWhen struct {
	conds, thens []node
	els          node
}

func (n *caseWhen) sql(p *printer) string {
	var b strings.Builder
	b.WriteString("CASE")
	for i := range n.conds {
		b.WriteString(" WHEN " + n.conds[i].sql(p) + " THEN " + n.thens[i].sql(p))
	}
	b.WriteString(" ELSE " + n.els.sql(p) + " END")
	return b.String()
}
func (n *caseWhen) kind() types.Kind { return n.thens[0].kind() }
func (n *caseWhen) children() []node {
	out := append(append([]node{}, n.conds...), n.thens...)
	return append(out, n.els)
}
func (n *caseWhen) eval(c *ectx) types.Value {
	for i, cond := range n.conds {
		if holds(cond.eval(c)) {
			return n.thens[i].eval(c)
		}
	}
	return n.els.eval(c)
}

// extract is EXTRACT(YEAR|MONTH FROM date), through the time package.
type extract struct {
	month bool
	e     node
}

func (n *extract) sql(p *printer) string {
	part := "YEAR"
	if n.month {
		part = "MONTH"
	}
	return "EXTRACT(" + part + " FROM " + n.e.sql(p) + ")"
}
func (n *extract) kind() types.Kind { return types.Int64 }
func (n *extract) children() []node { return []node{n.e} }
func (n *extract) eval(c *ectx) types.Value {
	t := dayTime(n.e.eval(c).I)
	if n.month {
		return types.IntVal(int64(t.Month()))
	}
	return types.IntVal(int64(t.Year()))
}

// dayTime is the UTC midnight of an epoch day.
func dayTime(days int64) time.Time { return time.Unix(days*86400, 0).UTC() }

func mustDate(s string) time.Time {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		panic(err)
	}
	return t
}

// keyRef stands for GROUP BY key i above the aggregation; it prints as
// the key's own text, which is how SQL names a group key.
type keyRef struct {
	i int
	e node
}

func (n *keyRef) sql(p *printer) string    { return n.e.sql(p) }
func (n *keyRef) eval(c *ectx) types.Value { return c.grp.keys[n.i] }
func (n *keyRef) kind() types.Kind         { return n.e.kind() }
func (n *keyRef) children() []node         { return []node{n.e} }

// aggCall is count/sum/avg/min/max over the current group; arg nil is
// COUNT(*).
type aggCall struct {
	fn  string
	arg node
}

func (n *aggCall) sql(p *printer) string {
	if n.arg == nil {
		return n.fn + "(*)"
	}
	return n.fn + "(" + n.arg.sql(p) + ")"
}
func (n *aggCall) children() []node {
	if n.arg == nil {
		return nil
	}
	return []node{n.arg}
}

// kind: counts are integers, averages floats, a sum of integers an
// integer and of anything else a float, extremes keep the argument's
// kind.
func (n *aggCall) kind() types.Kind {
	switch n.fn {
	case "count":
		return types.Int64
	case "avg":
		return types.Float64
	case "sum":
		if n.arg.kind() == types.Int64 {
			return types.Int64
		}
		return types.Float64
	}
	return n.arg.kind()
}

// eval folds the group's rows, skipping NULL arguments. Over no value
// (a scalar aggregate of an empty input, or only NULLs) every aggregate
// is the zero value of its kind: the NULL a record stores.
func (n *aggCall) eval(c *ectx) types.Value {
	envs := c.grp.envs
	if n.fn == "count" && n.arg == nil {
		return types.IntVal(int64(len(envs)))
	}
	var vals []types.Value
	for _, env := range envs {
		if v := n.arg.eval(&ectx{env: env}); !v.Null {
			vals = append(vals, v)
		}
	}
	if n.fn == "count" {
		return types.IntVal(int64(len(vals)))
	}
	k := n.kind()
	if len(vals) == 0 {
		return types.Value{Kind: k}
	}
	switch n.fn {
	case "sum", "avg":
		var si int64
		var sf float64
		for _, v := range vals {
			si += v.I
			sf += num(v)
		}
		switch {
		case n.fn == "avg":
			return types.FloatVal(sf / float64(len(vals)))
		case k == types.Int64:
			return types.IntVal(si)
		}
		return types.FloatVal(sf)
	}
	best := vals[0]
	for _, v := range vals[1:] {
		if d := order(v, best); d < 0 && n.fn == "min" || d > 0 && n.fn == "max" {
			best = v
		}
	}
	return best
}

// sqlLit prints a value as the SQL literal that denotes it.
func sqlLit(v types.Value) string {
	switch v.Kind {
	case types.Int64:
		if v.I < 0 {
			return "(" + strconv.FormatInt(v.I, 10) + ")"
		}
		return strconv.FormatInt(v.I, 10)
	case types.Float64:
		s := strconv.FormatFloat(v.F, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		if v.F < 0 {
			return "(" + s + ")"
		}
		return s
	case types.Date:
		return "DATE '" + dayTime(v.I).Format("2006-01-02") + "'"
	}
	return "'" + v.S + "'"
}

// fromItem is one FROM entry.
type fromItem struct {
	t     *otable
	alias string
}

// item is one SELECT entry; the alias names its output column.
type item struct {
	e     node
	alias string
}

// orderKey sorts on output column col, multiplied by scale when the
// statement put a $n there.
type orderKey struct {
	col   int
	desc  bool
	scale *param
}

// stmt is one generated (or hand-built) SELECT.
type stmt struct {
	from    []fromItem
	where   []node // conjuncts
	nJoin   int    // the first nJoin conjuncts are the join's key equalities
	agg     bool   // an aggregation: GROUP BY keys and/or aggregates
	groupBy []node
	items   []item
	having  node
	order   []orderKey
	limit   int // -1: none
	params  []*param
	feats   map[string]bool
}

func (s *stmt) sql(prepared bool) string {
	p := &printer{prepared: prepared}
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, it := range s.items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.e.sql(p) + " AS " + it.alias)
	}
	b.WriteString(" FROM ")
	for i, f := range s.from {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.t.name + " " + f.alias)
	}
	if len(s.where) > 0 {
		parts := make([]string, len(s.where))
		for i, w := range s.where {
			parts[i] = w.sql(p)
		}
		b.WriteString(" WHERE " + strings.Join(parts, " AND "))
	}
	if len(s.groupBy) > 0 {
		parts := make([]string, len(s.groupBy))
		for i, g := range s.groupBy {
			parts[i] = g.sql(p)
		}
		b.WriteString(" GROUP BY " + strings.Join(parts, ", "))
	}
	if s.having != nil {
		b.WriteString(" HAVING " + s.having.sql(p))
	}
	if len(s.order) > 0 {
		parts := make([]string, len(s.order))
		for i, o := range s.order {
			parts[i] = s.items[o.col].alias
			if o.scale != nil {
				parts[i] += " * " + o.scale.sql(p)
			}
			if o.desc {
				parts[i] += " DESC"
			}
		}
		b.WriteString(" ORDER BY " + strings.Join(parts, ", "))
	}
	if s.limit >= 0 {
		b.WriteString(" LIMIT " + strconv.Itoa(s.limit))
	}
	return b.String()
}

// args are the values of the statement's $n slots, $1 first.
func (s *stmt) args() []types.Value {
	out := make([]types.Value, len(s.params))
	for i, p := range s.params {
		out[i] = p.v
	}
	return out
}

// kinds are the output column kinds.
func (s *stmt) kinds() []types.Kind {
	out := make([]types.Kind, len(s.items))
	for i, it := range s.items {
		out[i] = it.e.kind()
	}
	return out
}

// positions reports the FROM positions e reads.
func positions(e node) []int {
	seen := map[int]bool{}
	var out []int
	walk(e, func(n node) {
		if c, ok := n.(*colRef); ok && !seen[c.pos] {
			seen[c.pos] = true
			out = append(out, c.pos)
		}
	})
	sort.Ints(out)
	return out
}

// bind runs the nested loops over the FROM tables, in FROM order,
// testing each conjunct as soon as the last table it reads is bound,
// and hands every surviving combination to emit (the slice is reused).
func (s *stmt) bind(emit func(env []row)) {
	at := make([][]node, len(s.from))
	for _, w := range s.where {
		last := 0
		if ps := positions(w); len(ps) > 0 {
			last = ps[len(ps)-1]
		}
		at[last] = append(at[last], w)
	}
	env := make([]row, len(s.from))
	c := &ectx{env: env}
	var loop func(i int)
	loop = func(i int) {
		if i == len(s.from) {
			emit(env)
			return
		}
	rows:
		for _, r := range s.from[i].t.rows {
			env[i] = r
			for _, w := range at[i] {
				if !holds(w.eval(c)) {
					continue rows
				}
			}
			loop(i + 1)
		}
	}
	loop(0)
}

// groups runs the aggregation: the bound rows split by their GROUP BY
// key values, in first-seen order. Without keys there is exactly one
// group, however many rows reach it.
func (s *stmt) groups() []*group {
	byKey := map[string]*group{}
	var out []*group
	if len(s.groupBy) == 0 {
		out = append(out, &group{})
	}
	s.bind(func(env []row) {
		env = append([]row(nil), env...)
		if len(s.groupBy) == 0 {
			out[0].envs = append(out[0].envs, env)
			return
		}
		keys := make([]types.Value, len(s.groupBy))
		var id strings.Builder
		for i, g := range s.groupBy {
			keys[i] = g.eval(&ectx{env: env})
			id.WriteString(valueID(keys[i]))
		}
		grp := byKey[id.String()]
		if grp == nil {
			grp = &group{keys: keys}
			byKey[id.String()] = grp
			out = append(out, grp)
		}
		grp.envs = append(grp.envs, env)
	})
	return out
}

// valueID is a key that is equal for equal values of one kind (−0 and
// +0 included).
func valueID(v types.Value) string {
	switch v.Kind {
	case types.Float64:
		f := v.F
		if f == 0 {
			f = 0
		}
		return fmt.Sprintf("f%x|", math.Float64bits(f))
	case types.String:
		return fmt.Sprintf("s%d:%s|", len(v.S), v.S)
	}
	return fmt.Sprintf("i%d:%d|", v.Kind, v.I)
}

// eval answers the statement: every output row, sorted when the
// statement says ORDER BY. LIMIT is not applied: under ties which rows
// it keeps is unspecified, so check judges it.
func (s *stmt) eval() []row {
	var out []row
	project := func(c *ectx) {
		r := make(row, len(s.items))
		for i, it := range s.items {
			if r[i] = it.e.eval(c); r[i].Null {
				r[i] = types.Value{Kind: r[i].Kind} // a record stores NULL as zero
			}
		}
		out = append(out, r)
	}
	if s.agg {
		for _, g := range s.groups() {
			c := &ectx{grp: g}
			if s.having == nil || holds(s.having.eval(c)) {
				project(c)
			}
		}
	} else {
		s.bind(func(env []row) { project(&ectx{env: env}) })
	}
	if len(s.order) > 0 {
		sort.SliceStable(out, func(i, j int) bool { return s.orderCmp(out[i], out[j]) < 0 })
	}
	return out
}

// sortKey is output row r's value under ORDER BY key o.
func (o orderKey) sortKey(r row) types.Value {
	v := r[o.col]
	if o.scale == nil {
		return v
	}
	return (&arith{op: '*', l: &lit{v}, r: o.scale}).eval(nil)
}

// orderCmp orders two output rows by the statement's ORDER BY.
func (s *stmt) orderCmp(a, b row) int {
	for _, o := range s.order {
		d := order(o.sortKey(a), o.sortKey(b))
		if o.desc {
			d = -d
		}
		if d != 0 {
			return d
		}
	}
	return 0
}
