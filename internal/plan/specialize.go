package plan

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/types"
)

// This file is the plan's side of prepared-statement parameters. A
// cached plan holds expr.Param slots where the statement said $n and is
// shared by every session that prepared the same text and by concurrent
// EXECUTEs, so nothing here ever copies or touches it after compile:
// compile counts the slots and infers their kinds, CoerceArgs turns an
// EXECUTE's arguments into the values those kinds call for, and the
// executor substitutes the values where it builds iterators.

// CoerceArgs checks args against the plan's parameter slots ($1 takes
// args[0]) and converts each to its slot's inferred kind where that is
// lossless (int -> float, string in date format -> date). It returns
// args itself when nothing needed converting — the usual EXECUTE — and
// never writes to it. A wrong count or an inconvertible value is an
// error.
func (p *Plan) CoerceArgs(args []types.Value) ([]types.Value, error) {
	if len(args) != p.NumParams {
		return nil, fmt.Errorf("plan: statement wants %d parameters, %d given", p.NumParams, len(args))
	}
	out := args
	for i, v := range args {
		want, typed := p.paramKinds[i], p.paramTyped[i]
		if !typed || v.Null || v.Kind == want {
			continue
		}
		cv, err := coerceValue(v, want)
		if err != nil {
			return nil, fmt.Errorf("plan: $%d: %w", i+1, err)
		}
		if &out[0] == &args[0] {
			out = append([]types.Value(nil), args...)
		}
		out[i] = cv
	}
	return out, nil
}

// AcquireBound and ReleaseBound are what is left of the bound-plan
// pool, kept only because benchmark/ (layers.go, trace.go) times them as
// the bind layer and only a [benchmark] PR may edit it (ROADMAP 5(d));
// delete both with that PR.
func (p *Plan) AcquireBound(args []types.Value) ([]types.Value, error) { return p.CoerceArgs(args) }

// ReleaseBound does nothing: there is no pool to return to.
func (p *Plan) ReleaseBound([]types.Value) {}

// coerceValue converts v to the slot kind when the conversion is
// lossless.
func coerceValue(v types.Value, want types.Kind) (types.Value, error) {
	switch {
	case want == types.Float64 && v.Kind == types.Int64:
		return types.FloatVal(float64(v.I)), nil
	case want == types.Int64 && v.Kind == types.Float64 && float64(int64(v.F)) == v.F:
		return types.IntVal(int64(v.F)), nil
	case want == types.Date && v.Kind == types.String:
		days, err := types.ParseDate(v.S)
		if err != nil {
			return v, fmt.Errorf("expected a date, got %q", v.S)
		}
		return types.DateVal(days), nil
	case want == types.Date && v.Kind == types.Int64:
		return types.DateVal(v.I), nil
	}
	return v, fmt.Errorf("cannot use %v value for %v slot", v.Kind, want)
}

// maxParams is the EPQ1 argument count's range (a u16): a higher slot
// could never be given a value, and the slot tables are sized by the
// highest $n in the text.
const maxParams = 1<<16 - 1

// inferParams counts the plan's parameter slots and fixes the kind
// CoerceArgs converts each one's argument to — once, at compile time.
// The same $n can appear several times. Where an instance's kind reaches
// a schema (a projected, grouped or aggregated value) the slot must
// deliver exactly the kind that instance advertised to the schema —
// Int64 when its context typed it no further — or the argument would be
// reinterpreted rather than converted; two such instances that disagree
// make the statement untypable. Otherwise the slot takes the kind of
// its first instance typed by a comparison, and a slot nothing typed
// (`$1 = $2`) passes its argument through as given.
func (p *Plan) inferParams() error {
	var pinned []bool
	var err error
	see := func(e expr.Expr, pred bool) {
		expr.WalkParams(e, func(pr *expr.Param) {
			if pr.N > maxParams {
				err = fmt.Errorf("plan: $%d is beyond the %d parameters a statement may take", pr.N, maxParams)
				return
			}
			for len(pinned) < pr.N {
				pinned = append(pinned, false)
				p.paramKinds = append(p.paramKinds, types.Int64)
				p.paramTyped = append(p.paramTyped, false)
			}
			i := pr.N - 1
			switch {
			case !pred:
				if pinned[i] && p.paramKinds[i] != pr.Kind(nil) {
					err = fmt.Errorf("plan: cannot infer the type of $%d: used as %v and as %v",
						pr.N, p.paramKinds[i], pr.Kind(nil))
				}
				p.paramKinds[i], p.paramTyped[i], pinned[i] = pr.Kind(nil), true, true
			case pr.Typed && !p.paramTyped[i]:
				p.paramKinds[i], p.paramTyped[i] = pr.K, true
			}
		})
	}
	for _, seg := range p.Segments {
		walkOpExprs(seg.Root, see)
		if seg.Out != nil {
			for _, e := range seg.Out.PartKeys {
				see(e, false)
			}
		}
	}
	p.NumParams = len(pinned)
	return err
}

// walkOpExprs visits every expression attached to the operator tree —
// the one PhysOp switch that knows where parameters can sit; the
// executor's builder substitutes at the same fields. pred marks a
// predicate: its own result is a boolean, so the kinds of the slots
// inside it reach no schema.
func walkOpExprs(op PhysOp, fn func(e expr.Expr, pred bool)) {
	Walk(op, func(o PhysOp) {
		switch n := o.(type) {
		case *PScan:
			if n.Pred != nil {
				fn(n.Pred, true)
			}
		case *PFilter:
			fn(n.Pred, true)
		case *PProject:
			for _, e := range n.Exprs {
				fn(e, false)
			}
		case *PHashJoin:
			for _, e := range n.BuildKeys {
				fn(e, false)
			}
			for _, e := range n.ProbeKeys {
				fn(e, false)
			}
		case *PHashAgg:
			for _, e := range n.Keys {
				fn(e, false)
			}
			for _, s := range n.Specs {
				if s.Arg != nil {
					fn(s.Arg, false)
				}
			}
		case *PSort:
			for _, k := range n.Keys {
				fn(k.E, false)
			}
		case *PTopN:
			for _, k := range n.Keys {
				fn(k.E, false)
			}
		}
	})
}
