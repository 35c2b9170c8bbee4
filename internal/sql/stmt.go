package sql

// Statement is a parsed top-level statement: a plain SELECT or one of
// the session-layer statements (PREPARE / EXECUTE / DEALLOCATE).
type Statement interface {
	stmtNode()
}

func (s *SelectStmt) stmtNode() {}

// PrepareStmt is PREPARE name AS SELECT ... — the inner SELECT may
// contain $n parameters.
type PrepareStmt struct {
	Name string
	// SQL is the inner statement's text, for plan-cache keying.
	SQL  string
	Stmt *SelectStmt
}

func (s *PrepareStmt) stmtNode() {}

// ExecuteStmt is EXECUTE name (arg, ...) — args are literal
// expressions bound to the prepared statement's parameters in order.
type ExecuteStmt struct {
	Name string
	Args []Expr
}

func (s *ExecuteStmt) stmtNode() {}

// DeallocateStmt is DEALLOCATE name.
type DeallocateStmt struct {
	Name string
}

func (s *DeallocateStmt) stmtNode() {}

// WalkExprs visits every expression node of the statement in evaluation
// position: select items, FROM subqueries (recursively), WHERE,
// GROUP BY, HAVING, and ORDER BY.
func WalkExprs(s *SelectStmt, fn func(Expr)) {
	if s == nil {
		return
	}
	for _, it := range s.Items {
		WalkExpr(it.Expr, fn)
	}
	for _, tr := range s.From {
		if tr.Sub != nil {
			WalkExprs(tr.Sub, fn)
		}
	}
	WalkExpr(s.Where, fn)
	for _, g := range s.GroupBy {
		WalkExpr(g, fn)
	}
	WalkExpr(s.Having, fn)
	for _, o := range s.OrderBy {
		WalkExpr(o.Expr, fn)
	}
}

// WalkExpr visits e and every sub-expression under it, parents first.
func WalkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch n := e.(type) {
	case *BinExpr:
		WalkExpr(n.L, fn)
		WalkExpr(n.R, fn)
	case *NotExpr:
		WalkExpr(n.E, fn)
	case *NegExpr:
		WalkExpr(n.E, fn)
	case *LikeExpr:
		WalkExpr(n.E, fn)
	case *BetweenExpr:
		WalkExpr(n.E, fn)
		WalkExpr(n.Lo, fn)
		WalkExpr(n.Hi, fn)
	case *InExpr:
		WalkExpr(n.E, fn)
		for _, i := range n.List {
			WalkExpr(i, fn)
		}
	case *CaseExpr:
		for _, w := range n.Whens {
			WalkExpr(w.Cond, fn)
			WalkExpr(w.Then, fn)
		}
		WalkExpr(n.Else, fn)
	case *FuncExpr:
		for _, a := range n.Args {
			WalkExpr(a, fn)
		}
	case *ExtractExpr:
		WalkExpr(n.E, fn)
	}
}

// MaxParam returns the highest $n parameter number referenced by the
// statement (0 when parameter-free).
func MaxParam(s *SelectStmt) int {
	max := 0
	WalkExprs(s, func(e Expr) {
		if p, ok := e.(*ParamRef); ok && p.N > max {
			max = p.N
		}
	})
	return max
}
