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
