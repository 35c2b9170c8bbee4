// Package session implements per-connection SQL session state for the
// high-QPS serving path: named prepared statements (PREPARE name AS
// SELECT ... / EXECUTE name (args...) / DEALLOCATE name) resolved
// against a Backend — the admission-controlled server in production,
// the bare cluster in tests.
//
// A prepared statement pins the physical plan compiled from its text,
// so EXECUTE pays parameter binding and execution only: no lexing, no
// parsing, no planning. The pin records the catalog version the plan
// was compiled against; an EXECUTE that finds the catalog has moved
// recompiles transparently, so a session can never run a plan against
// a schema it was not built for.
//
// A Session serves one connection and is not safe for concurrent use;
// the protocol layer drives each connection from a single goroutine.
package session

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/types"
)

// Backend is what a session executes against. *server.Server satisfies
// it directly (admission-controlled serving); Direct adapts a bare
// *engine.Cluster for tests and embedded use.
type Backend interface {
	// CompileCached compiles query, consulting the plan cache; the bool
	// reports a cache hit.
	CompileCached(query string) (*plan.Plan, bool, error)
	// CatalogVersion is the version plans are currently keyed on.
	CatalogVersion() int64
	// Query executes ad-hoc SQL.
	Query(ctx context.Context, sqlText string) (*engine.Result, error)
	// QueryBound executes a compiled plan with bound arguments.
	QueryBound(ctx context.Context, p *plan.Plan, args []types.Value, sqlText string) (*engine.Result, error)
}

// Direct adapts a bare cluster to Backend, bypassing admission.
type Direct struct{ C *engine.Cluster }

// CompileCached implements Backend.
func (d Direct) CompileCached(query string) (*plan.Plan, bool, error) {
	return d.C.CompileCached(query)
}

// CatalogVersion implements Backend.
func (d Direct) CatalogVersion() int64 { return d.C.CatalogVersion() }

// Query implements Backend.
func (d Direct) Query(ctx context.Context, sqlText string) (*engine.Result, error) {
	return d.C.Exec(ctx, engine.Request{SQL: sqlText})
}

// QueryBound implements Backend.
func (d Direct) QueryBound(ctx context.Context, p *plan.Plan, args []types.Value, sqlText string) (*engine.Result, error) {
	return d.C.Exec(ctx, engine.Request{SQL: sqlText, Plan: p, Args: args})
}

// prepStmt is one named prepared statement: the plan template pinned
// at PREPARE time plus the catalog version it was compiled against.
type prepStmt struct {
	sqlText   string
	plan      *plan.Plan
	version   int64
	numParams int
}

// Session is one connection's prepared-statement namespace.
type Session struct {
	b        Backend
	prepared map[string]*prepStmt
}

// New opens a session over the backend.
func New(b Backend) *Session {
	return &Session{b: b, prepared: make(map[string]*prepStmt)}
}

// Prepared lists the session's prepared statement names (unordered).
func (s *Session) Prepared() []string {
	out := make([]string, 0, len(s.prepared))
	for name := range s.prepared {
		out = append(out, name)
	}
	return out
}

// Prepare compiles sqlText (which may contain $n parameter slots) and
// pins it under name, replacing any previous statement of that name.
// It returns the statement's parameter count.
func (s *Session) Prepare(name, sqlText string) (int, error) {
	p, _, err := s.b.CompileCached(sqlText)
	if err != nil {
		return 0, err
	}
	s.prepared[name] = &prepStmt{
		sqlText:   sqlText,
		plan:      p,
		version:   s.b.CatalogVersion(),
		numParams: p.NumParams,
	}
	return p.NumParams, nil
}

// NumParams reports a prepared statement's parameter count.
func (s *Session) NumParams(name string) (int, error) {
	st, ok := s.prepared[name]
	if !ok {
		return 0, fmt.Errorf("session: no prepared statement %q", name)
	}
	return st.numParams, nil
}

// Deallocate drops a prepared statement.
func (s *Session) Deallocate(name string) error {
	if _, ok := s.prepared[name]; !ok {
		return fmt.Errorf("session: no prepared statement %q", name)
	}
	delete(s.prepared, name)
	return nil
}

// Execute runs a prepared statement with the given arguments. A
// statement whose plan predates the current catalog version is
// recompiled first — the staleness check that keeps a long-lived
// session correct across DDL.
func (s *Session) Execute(ctx context.Context, name string, args []types.Value) (*engine.Result, error) {
	st, ok := s.prepared[name]
	if !ok {
		return nil, fmt.Errorf("session: no prepared statement %q", name)
	}
	if v := s.b.CatalogVersion(); v != st.version {
		p, _, err := s.b.CompileCached(st.sqlText)
		if err != nil {
			return nil, fmt.Errorf("session: reprepare %q after catalog change: %w", name, err)
		}
		st.plan, st.version, st.numParams = p, v, p.NumParams
	}
	return s.b.QueryBound(ctx, st.plan, args, st.sqlText)
}

// Exec is the session's text entry point: it dispatches PREPARE /
// EXECUTE / DEALLOCATE to the prepared-statement machinery and passes
// anything else to the backend as ad-hoc SQL. A nil result with a nil
// error reports a statement with no result set (PREPARE, DEALLOCATE).
func (s *Session) Exec(ctx context.Context, sqlText string) (*engine.Result, error) {
	if !isSessionStmt(sqlText) {
		return s.b.Query(ctx, sqlText)
	}
	stmt, err := sql.ParseStatement(sqlText)
	if err != nil {
		return nil, err
	}
	switch n := stmt.(type) {
	case *sql.PrepareStmt:
		if _, err := s.Prepare(n.Name, n.SQL); err != nil {
			return nil, err
		}
		return nil, nil
	case *sql.ExecuteStmt:
		args := make([]types.Value, len(n.Args))
		for i, a := range n.Args {
			v, err := evalLiteral(a)
			if err != nil {
				return nil, fmt.Errorf("session: EXECUTE %s argument %d: %w", n.Name, i+1, err)
			}
			args[i] = v
		}
		return s.Execute(ctx, n.Name, args)
	case *sql.DeallocateStmt:
		return nil, s.Deallocate(n.Name)
	}
	// ParseStatement handed back a plain SELECT despite the keyword
	// sniff; run it ad hoc.
	return s.b.Query(ctx, sqlText)
}

// isSessionStmt sniffs the leading keyword so plain SELECTs skip the
// session parse entirely (they are parsed — or plan-cache hit — by the
// backend).
func isSessionStmt(sqlText string) bool {
	t := strings.TrimSpace(sqlText)
	for _, kw := range [...]string{"PREPARE", "EXECUTE", "DEALLOCATE"} {
		if len(t) > len(kw) && strings.EqualFold(t[:len(kw)], kw) {
			switch t[len(kw)] {
			case ' ', '\t', '\n', '\r':
				return true
			}
		}
	}
	return false
}

// evalLiteral evaluates an EXECUTE argument expression. Arguments are
// literals, optionally negated; anything referencing columns or
// parameters is rejected.
func evalLiteral(e sql.Expr) (types.Value, error) {
	switch n := e.(type) {
	case *sql.IntLit:
		return types.IntVal(n.V), nil
	case *sql.FloatLit:
		return types.FloatVal(n.V), nil
	case *sql.StrLit:
		return types.StrVal(n.V), nil
	case *sql.DateLit:
		return types.DateVal(n.Days), nil
	case *sql.NegExpr:
		v, err := evalLiteral(n.E)
		if err != nil {
			return types.Value{}, err
		}
		switch v.Kind {
		case types.Int64:
			return types.IntVal(-v.I), nil
		case types.Float64:
			return types.FloatVal(-v.F), nil
		}
		return types.Value{}, fmt.Errorf("cannot negate %v literal", v.Kind)
	}
	return types.Value{}, fmt.Errorf("argument must be a literal, got %T", e)
}
