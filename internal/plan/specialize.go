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
	see := func(pr *expr.Param, pred bool) {
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
	}
	p.WalkExprs(func(role string, _ *types.Schema, e expr.Expr, keys []expr.Expr) {
		visit := func(x expr.Expr) {
			if pr, ok := x.(*expr.Param); ok {
				see(pr, role == "pred")
			}
		}
		expr.Walk(e, visit)
		for _, k := range keys {
			expr.Walk(k, visit)
		}
	})
	p.NumParams = len(pinned)
	return err
}

// WalkExprs calls fn on every site where p hands expressions to an
// iterator, with the schema the expressions read and their role: "pred"
// for a scan or filter predicate (its own result is a boolean, so the
// kinds of the slots inside it reach no schema), "value" for a
// projected expression or an aggregate argument, "order" for a sort key,
// and "keys" for a join, group or partition key list. A key list comes
// whole, in keys, with e nil; any other site is one expression, e, with
// keys nil. Segment by segment it visits the operators (walkOpExprs)
// and then the segment's repartition keys.
func (p *Plan) WalkExprs(fn func(role string, in *types.Schema, e expr.Expr, keys []expr.Expr)) {
	for _, seg := range p.Segments {
		walkOpExprs(seg.Root, fn)
		if seg.Out != nil && seg.Out.PartKeys != nil {
			fn("keys", seg.Root.Schema(), nil, seg.Out.PartKeys)
		}
	}
}

// walkOpExprs visits every expression attached to the operator tree, as
// WalkExprs describes. It is the one PhysOp switch that knows where
// expressions sit; the executor's builder substitutes parameters at the
// same fields.
func walkOpExprs(op PhysOp, fn func(role string, in *types.Schema, e expr.Expr, keys []expr.Expr)) {
	Walk(op, func(o PhysOp) {
		switch n := o.(type) {
		case *PScan:
			if n.Pred != nil {
				fn("pred", n.Sch, n.Pred, nil)
			}
		case *PFilter:
			fn("pred", n.Child.Schema(), n.Pred, nil)
		case *PProject:
			for _, e := range n.Exprs {
				fn("value", n.Child.Schema(), e, nil)
			}
		case *PHashJoin:
			fn("keys", n.Build.Schema(), nil, n.BuildKeys)
			fn("keys", n.Probe.Schema(), nil, n.ProbeKeys)
			for _, s := range n.Aggs {
				if s.Arg != nil {
					fn("value", n.Probe.Schema(), s.Arg, nil)
				}
			}
		case *PHashAgg:
			fn("keys", n.Child.Schema(), nil, n.Keys)
			for _, s := range n.Specs {
				if s.Arg != nil {
					fn("value", n.Child.Schema(), s.Arg, nil)
				}
			}
		case *PSort:
			for _, k := range n.Keys {
				fn("order", n.Child.Schema(), k.E, nil)
			}
		case *PTopN:
			for _, k := range n.Keys {
				fn("order", n.Child.Schema(), k.E, nil)
			}
		}
	})
}
