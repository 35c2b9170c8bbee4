package engine

import (
	"math"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/types"
)

// Where a row lives, and which partitions a scan has to read.
//
// Every table is hash-partitioned on its key across the data nodes.
// ownerOf is the one placement rule: TableLoader.Add puts each row on
// the node it names, and a scan whose predicate pins a one-column
// partition key to constants asks it which nodes can hold a match, so
// the loader and the pruner cannot disagree. The pruning decision is
// made per execution, after the arguments are bound, so a cached plan
// stays independent of its arguments; the scan's filter still runs over
// whatever is read, so pruning cannot change an answer.

// ownerOf returns the node, of nodes, that holds the rows whose
// partition key is key (the values of the table's PartKey columns, in
// order). It allocates nothing.
func ownerOf(key []types.Value, nodes int) int {
	return int(expr.HashValues(key) % uint64(nodes))
}

// keyPin is a conjunct of a scan's predicate that pins the table's
// one-column partition key to constants: key = eq when list is nil,
// key IN list otherwise.
type keyPin struct {
	eq   types.Value
	list []types.Value
}

// owns reports whether node, of nodes, holds a row the pin admits.
func (p *keyPin) owns(node, nodes int) bool {
	if p.list == nil {
		return ownerOf([]types.Value{p.eq}, nodes) == node
	}
	for _, v := range p.list {
		if ownerOf([]types.Value{v}, nodes) == node {
			return true
		}
	}
	return false
}

// pinOf finds, among the conjuncts of pred (a scan predicate with its
// arguments bound), one that pins tbl's one-column partition key to
// constants: key = c, c = key or key IN (c, ...). Each constant must be
// non-NULL and of the key column's own kind, and no float may be NaN:
// under those terms a row equals a constant only when the two encode
// alike, so only the constant's owner can hold it. A constant of
// another kind (int_key = 600123.0) compares by numeric value but
// hashes by its own kind, so such a conjunct pins nothing. ok is false
// when no conjunct pins the key: the scan reads every partition.
func pinOf(pred expr.Expr, tbl *catalog.Table) (p keyPin, ok bool) {
	if len(tbl.PartKey) != 1 {
		return keyPin{}, false
	}
	key := tbl.PartKey[0]
	kind := tbl.Schema.Cols[key].Kind
	isKey := func(x expr.Expr) bool {
		c, ok := x.(*expr.Col)
		return ok && c.Idx == key
	}
	pins := func(v types.Value) bool {
		return !v.Null && v.Kind == kind && !(kind == types.Float64 && math.IsNaN(v.F))
	}
	switch n := pred.(type) {
	case *expr.And:
		for _, t := range n.Terms {
			if p, ok := pinOf(t, tbl); ok {
				return p, true
			}
		}
	case *expr.Cmp:
		if n.Op != expr.EQ {
			break
		}
		l, r := n.L, n.R
		if !isKey(l) {
			l, r = r, l
		}
		if c, ok := r.(*expr.Const); ok && isKey(l) && pins(c.V) {
			return keyPin{eq: c.V}, true
		}
	case *expr.In:
		if !isKey(n.E) || len(n.List) == 0 {
			break
		}
		for _, v := range n.List {
			if !pins(v) {
				return keyPin{}, false
			}
		}
		return keyPin{list: n.List}, true
	}
	return keyPin{}, false
}
