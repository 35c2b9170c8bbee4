package sql

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/types"
)

// Parse parses one SELECT statement.
func Parse(input string) (*SelectStmt, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, input: input}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("trailing input at %q", p.peek().text)
	}
	return stmt, nil
}

// ParseStatement parses one top-level statement: a SELECT, or one of
// the session statements PREPARE name AS SELECT ... / EXECUTE name
// (args...) / DEALLOCATE name.
func ParseStatement(input string) (Statement, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, input: input}
	switch t := p.peek(); {
	case t.kind == tokIdent && t.text == "prepare":
		p.next()
		name := p.next()
		if name.kind != tokIdent || isReserved(name.text) {
			return nil, p.errf("expected statement name after PREPARE, found %q", name.text)
		}
		if err := p.expectKw("as"); err != nil {
			return nil, err
		}
		// The inner statement's text starts at the token after AS; keep
		// it verbatim so the plan cache can key on it.
		inner := strings.TrimSpace(input[p.peek().pos:])
		stmt, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.finish(); err != nil {
			return nil, err
		}
		return &PrepareStmt{Name: name.text, SQL: strings.TrimSuffix(inner, ";"), Stmt: stmt}, nil

	case t.kind == tokIdent && t.text == "execute":
		p.next()
		name := p.next()
		if name.kind != tokIdent || isReserved(name.text) {
			return nil, p.errf("expected statement name after EXECUTE, found %q", name.text)
		}
		var args []Expr
		if p.acceptOp("(") {
			if !p.acceptOp(")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if !p.acceptOp(",") {
						break
					}
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
			}
		}
		if err := p.finish(); err != nil {
			return nil, err
		}
		return &ExecuteStmt{Name: name.text, Args: args}, nil

	case t.kind == tokIdent && t.text == "deallocate":
		p.next()
		name := p.next()
		if name.kind != tokIdent || isReserved(name.text) {
			return nil, p.errf("expected statement name after DEALLOCATE, found %q", name.text)
		}
		if err := p.finish(); err != nil {
			return nil, err
		}
		return &DeallocateStmt{Name: name.text}, nil
	}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if err := p.finish(); err != nil {
		return nil, err
	}
	return stmt, nil
}

// finish consumes an optional trailing semicolon and requires EOF.
func (p *parser) finish() error {
	if p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return p.errf("trailing input at %q", p.peek().text)
	}
	return nil
}

type parser struct {
	toks  []token
	pos   int
	input string
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: "+format, args...)
}

// acceptKw consumes the next token if it is the given keyword.
func (p *parser) acceptKw(kw string) bool {
	if t := p.peek(); t.kind == tokIdent && t.text == kw {
		p.next()
		return true
	}
	return false
}

// acceptOp consumes the next token if it is the given operator.
func (p *parser) acceptOp(op string) bool {
	if t := p.peek(); t.kind == tokOp && t.text == op {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %q, found %q", strings.ToUpper(kw), p.peek().text)
	}
	return nil
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errf("expected %q, found %q", op, p.peek().text)
	}
	return nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKw("select"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}

	// SELECT list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if !p.acceptOp(",") {
			break
		}
	}

	// FROM with comma joins and JOIN ... ON (folded into Where).
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	var joinConds []Expr
	for {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		stmt.From = append(stmt.From, ref)
		for {
			if p.acceptKw("join") || (p.acceptKw("inner") && p.acceptKw("join")) {
				r2, err := p.parseTableRef()
				if err != nil {
					return nil, err
				}
				stmt.From = append(stmt.From, r2)
				if err := p.expectKw("on"); err != nil {
					return nil, err
				}
				cond, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				joinConds = append(joinConds, cond)
				continue
			}
			break
		}
		if !p.acceptOp(",") {
			break
		}
	}

	// WHERE.
	if p.acceptKw("where") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	for _, c := range joinConds {
		if stmt.Where == nil {
			stmt.Where = c
		} else {
			stmt.Where = &BinExpr{Op: "AND", L: stmt.Where, R: c}
		}
	}

	// GROUP BY.
	if p.acceptKw("group") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}

	// HAVING.
	if p.acceptKw("having") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = e
	}

	// ORDER BY.
	if p.acceptKw("order") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKw("desc") {
				item.Desc = true
			} else {
				p.acceptKw("asc")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}

	// LIMIT.
	if p.acceptKw("limit") {
		t := p.next()
		if t.kind != tokNumber {
			return nil, p.errf("expected number after LIMIT, found %q", t.text)
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad LIMIT %q", t.text)
		}
		stmt.Limit = n
	}
	return stmt, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.acceptOp("*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKw("as") {
		t := p.next()
		if t.kind != tokIdent {
			return item, p.errf("expected alias after AS, found %q", t.text)
		}
		item.Alias = t.text
	} else if t := p.peek(); t.kind == tokIdent && !isReserved(t.text) {
		p.next()
		item.Alias = t.text
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	if p.acceptOp("(") {
		sub, err := p.parseSelect()
		if err != nil {
			return TableRef{}, err
		}
		if err := p.expectOp(")"); err != nil {
			return TableRef{}, err
		}
		ref := TableRef{Sub: sub}
		p.acceptKw("as")
		if t := p.peek(); t.kind == tokIdent && !isReserved(t.text) {
			p.next()
			ref.Alias = t.text
		} else {
			return ref, p.errf("derived table requires an alias")
		}
		return ref, nil
	}
	t := p.next()
	if t.kind != tokIdent {
		return TableRef{}, p.errf("expected table name, found %q", t.text)
	}
	ref := TableRef{Name: t.text}
	p.acceptKw("as")
	if a := p.peek(); a.kind == tokIdent && !isReserved(a.text) {
		p.next()
		ref.Alias = a.text
	}
	return ref, nil
}

// isReserved lists keywords that terminate alias positions.
func isReserved(s string) bool {
	switch s {
	case "select", "from", "where", "group", "by", "having", "order",
		"limit", "and", "or", "not", "join", "inner", "on", "as",
		"between", "in", "like", "case", "when", "then", "else", "end",
		"asc", "desc", "date", "interval", "extract", "is", "null":
		return true
	}
	return false
}

// Expression grammar, precedence climbing:
//
//	expr    := orExpr
//	orExpr  := andExpr (OR andExpr)*
//	andExpr := notExpr (AND notExpr)*
//	notExpr := NOT notExpr | predicate
//	predicate := additive [ cmpOp additive
//	           | [NOT] LIKE str | [NOT] BETWEEN additive AND additive
//	           | [NOT] IN ( list ) ]
//	additive       := multiplicative (("+"|"-") multiplicative)*
//	multiplicative := unary (("*"|"/") unary)*
//	unary   := "-" unary | primary
//	primary := literal | column | func | CASE | EXTRACT | "(" expr ")"
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("and") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKw("not") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: e}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	negate := false
	if t := p.peek(); t.kind == tokIdent && t.text == "not" {
		// Lookahead for NOT LIKE / NOT BETWEEN / NOT IN.
		if p.pos+1 < len(p.toks) {
			nxt := p.toks[p.pos+1].text
			if nxt == "like" || nxt == "between" || nxt == "in" {
				p.next()
				negate = true
			}
		}
	}
	switch {
	case p.acceptKw("like"):
		t := p.next()
		if t.kind != tokString {
			return nil, p.errf("expected pattern string after LIKE")
		}
		return &LikeExpr{E: l, Pattern: t.text, Negate: negate}, nil
	case p.acceptKw("between"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("and"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		var e Expr = &BetweenExpr{E: l, Lo: lo, Hi: hi}
		if negate {
			e = &NotExpr{E: e}
		}
		return e, nil
	case p.acceptKw("in"):
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			item, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			list = append(list, item)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &InExpr{E: l, List: list, Negate: negate}, nil
	}
	if t := p.peek(); t.kind == tokOp {
		switch t.text {
		case "=", "<>", "<", "<=", ">", ">=":
			p.next()
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinExpr{Op: t.text, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		if p.acceptOp("+") {
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &BinExpr{Op: "+", L: l, R: r}
		} else if p.acceptOp("-") {
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &BinExpr{Op: "-", L: l, R: r}
		} else {
			return l, nil
		}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		if p.acceptOp("*") {
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinExpr{Op: "*", L: l, R: r}
		} else if p.acceptOp("/") {
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinExpr{Op: "/", L: l, R: r}
		} else {
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptOp("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		switch lit := e.(type) {
		case *IntLit:
			return &IntLit{V: -lit.V}, nil
		case *FloatLit:
			return &FloatLit{V: -lit.V}, nil
		}
		return &NegExpr{E: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		if strings.ContainsRune(t.text, '.') {
			v, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.text)
			}
			return &FloatLit{V: v}, nil
		}
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return &IntLit{V: v}, nil

	case tokString:
		p.next()
		// A bare string that looks like a date is treated as one; the
		// paper's queries compare date columns against quoted dates.
		if days, err := types.ParseDate(t.text); err == nil && len(t.text) == 10 {
			return &DateLit{Days: days, Raw: t.text}, nil
		}
		return &StrLit{V: t.text}, nil

	case tokParam:
		p.next()
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 1 {
			return nil, p.errf("bad parameter $%s", t.text)
		}
		return &ParamRef{N: n}, nil

	case tokOp:
		if t.text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errf("unexpected %q", t.text)

	case tokIdent:
		switch t.text {
		case "date":
			p.next()
			s := p.next()
			if s.kind != tokString {
				return nil, p.errf("expected string after DATE")
			}
			days, err := types.ParseDate(s.text)
			if err != nil {
				return nil, err
			}
			return &DateLit{Days: days, Raw: s.text}, nil

		case "interval":
			p.next()
			s := p.next()
			if s.kind != tokString && s.kind != tokNumber {
				return nil, p.errf("expected quantity after INTERVAL")
			}
			n, err := strconv.ParseInt(s.text, 10, 64)
			if err != nil {
				return nil, p.errf("bad interval %q", s.text)
			}
			u := p.next()
			if u.kind != tokIdent {
				return nil, p.errf("expected unit after INTERVAL quantity")
			}
			unit := strings.TrimSuffix(u.text, "s")
			switch unit {
			case "day", "month", "year":
			default:
				return nil, p.errf("unsupported interval unit %q", u.text)
			}
			return &IntervalLit{N: n, Unit: unit}, nil

		case "case":
			return p.parseCase()

		case "extract":
			p.next()
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			part := p.next()
			if part.kind != tokIdent || (part.text != "year" && part.text != "month") {
				return nil, p.errf("EXTRACT supports YEAR and MONTH, found %q", part.text)
			}
			if err := p.expectKw("from"); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &ExtractExpr{Part: part.text, E: e}, nil
		}

		p.next()
		// Function call?
		if p.acceptOp("(") {
			f := &FuncExpr{Name: t.text}
			if p.acceptOp("*") {
				f.Star = true
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return f, nil
			}
			if p.acceptOp(")") {
				return f, nil
			}
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				f.Args = append(f.Args, a)
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return f, nil
		}
		// Qualified or bare column.
		col := &ColRef{Name: t.text}
		if p.acceptOp(".") {
			n := p.next()
			if n.kind != tokIdent {
				return nil, p.errf("expected column after %q.", t.text)
			}
			col.Qualifier = t.text
			col.Name = n.text
		}
		return col, nil
	}
	return nil, p.errf("unexpected token %q", t.text)
}

func (p *parser) parseCase() (Expr, error) {
	if err := p.expectKw("case"); err != nil {
		return nil, err
	}
	c := &CaseExpr{}
	for p.acceptKw("when") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("then"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, WhenClause{Cond: cond, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN")
	}
	if p.acceptKw("else") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKw("end"); err != nil {
		return nil, err
	}
	return c, nil
}
