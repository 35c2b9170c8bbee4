package engine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/block"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/iterator"
	"repro/internal/storage"
	"repro/internal/types"
)

// destCounter is an Outbox that counts the rows sent to each
// destination.
type destCounter struct{ rows []int64 }

func (o *destCounter) Destinations() int { return len(o.rows) }
func (o *destCounter) CloseSend() error  { return nil }
func (o *destCounter) Send(d int, b *block.Block) error {
	o.rows[d] += int64(b.NumTuples())
	b.Recycle()
	return nil
}

// TestLoaderPlacesWhereSendersRoute: a join side left where TableLoader
// put it meets the other side repartitioned by a Sender, so the two
// must send a key to the same node; and a scan pinned to its table's
// partition key reads only the node the pruner names, so that node must
// be where the row was loaded. For part keys of each kind (floats
// include -0.0 and +0.0) and a composite one, on n = 2, 3 and 5 nodes,
// every row loaded onto node d is routed to destination d by a Sender
// on the same key, and for a one-column key the pruner owns `key = v`
// and `key IN (v)` on node d alone for every loaded v. A composite key
// is never pruned.
func TestLoaderPlacesWhereSendersRoute(t *testing.T) {
	sch := types.NewSchema(
		types.Col("i", types.Int64),
		types.Col("d", types.Date),
		types.Char("s", 10),
		types.Col("f", types.Float64),
		types.Col("j", types.Int64),
	)
	const rows = 3000
	for _, key := range []struct {
		name string
		cols []int
	}{
		{"int", []int{0}}, {"date", []int{1}}, {"char", []int{2}}, {"float", []int{3}}, {"composite", []int{4, 2}},
	} {
		for _, n := range []int{2, 3, 5} {
			t.Run(fmt.Sprintf("%s/n=%d", key.name, n), func(t *testing.T) {
				cat := catalog.New(n)
				tbl := &catalog.Table{Name: "t", Schema: sch, PartKey: key.cols}
				cat.MustAdd(tbl)
				c := NewCluster(Config{Nodes: n, CoresPerNode: 1}, cat)
				defer c.Close()
				tl, err := c.NewTableLoader("t")
				if err != nil {
					t.Fatal(err)
				}
				for r := 0; r < rows; r++ {
					rec := tl.Row()
					types.PutValue(rec, sch, 0, types.IntVal(int64(r*7-500)))
					types.PutValue(rec, sch, 1, types.DateVal(int64(8000+r%2400)))
					types.PutValue(rec, sch, 2, types.StrVal(fmt.Sprintf("k%d", r%997)))
					f := float64(r) / 8
					if r == 1 {
						f = math.Copysign(0, -1)
					}
					types.PutValue(rec, sch, 3, types.FloatVal(f))
					types.PutValue(rec, sch, 4, types.IntVal(int64(r%13)))
					tl.Add()
				}
				tl.Close()
				var keys []expr.Expr
				for _, i := range key.cols {
					keys = append(keys, expr.NewCol(i, sch.Cols[i].Name))
				}
				var total int64
				for d := 0; d < n; d++ {
					part, err := c.stores[d].Partition("t")
					if err != nil {
						t.Fatal(err)
					}
					out := &destCounter{rows: make([]int64, n)}
					if err := iterator.NewSender(iterator.NewScan(part.Schema, part), sch, out, keys).Run(&iterator.Ctx{Term: &iterator.TermFlag{}}); err != nil {
						t.Fatal(err)
					}
					if out.rows[d] == 0 {
						t.Errorf("node %d holds no rows", d)
					}
					for to, got := range out.rows {
						if to != d && got > 0 {
							t.Errorf("%d rows loaded onto node %d are routed to %d", got, d, to)
						}
					}
					total += out.rows[d]
					checkPrunerOwns(t, tbl, part, d, n)
				}
				if total != rows {
					t.Fatalf("the nodes hold %d rows, %d were loaded", total, rows)
				}
			})
		}
	}
}

// checkPrunerOwns asserts that, for every row of part (node d of n),
// the pruner sends `key = v` and `key IN (v)` to node d alone; for a
// composite key, that no conjunct pins anything.
func checkPrunerOwns(t *testing.T, tbl *catalog.Table, part *storage.Partition, d, n int) {
	t.Helper()
	cols := make([]expr.Expr, len(tbl.PartKey))
	for i, idx := range tbl.PartKey {
		cols[i] = expr.NewCol(idx, tbl.Schema.Cols[idx].Name)
	}
	for _, b := range part.Blocks {
		for r := 0; r < b.NumTuples(); r++ {
			if len(cols) > 1 {
				var terms []expr.Expr
				for i, idx := range tbl.PartKey {
					terms = append(terms, expr.NewCmp(expr.EQ, cols[i], expr.NewConst(b.Get(r, idx))))
				}
				if _, ok := pinOf(expr.NewAnd(terms...), tbl); ok {
					t.Fatalf("a composite key is pinned by %v", expr.NewAnd(terms...))
				}
				continue
			}
			v := b.Get(r, tbl.PartKey[0])
			vals := []types.Value{v}
			if v.Kind == types.Float64 && v.F == 0 {
				// -0.0 = +0.0: the other zero must find this row too.
				vals = append(vals, types.FloatVal(-v.F))
			}
			for _, v := range vals {
				for _, pred := range []expr.Expr{
					expr.NewCmp(expr.EQ, cols[0], expr.NewConst(v)),
					expr.NewCmp(expr.EQ, expr.NewConst(v), cols[0]),
					expr.NewIn(cols[0], []types.Value{v}),
				} {
					pin, ok := pinOf(pred, tbl)
					if !ok {
						t.Fatalf("%v pins nothing", pred)
					}
					for node := 0; node < n; node++ {
						if pin.owns(node, n) != (node == d) {
							t.Fatalf("%v: the pruner says node %d owns it is %v; the row is on node %d",
								pred, node, pin.owns(node, n), d)
						}
					}
				}
			}
		}
	}
}

// FuzzPartitionOwner: a value of each key kind lands, under the
// pruner's owner rule, on the node where TableLoader placed a row that
// carries it. The pruner is asked with the value as given when the
// stored column equals it, and always with the value the row stores (a
// CHAR keeps its first ten bytes up to a NUL).
func FuzzPartitionOwner(f *testing.F) {
	f.Add(int64(600123), 0.5, "k17", uint8(3))
	f.Add(int64(-1), math.Copysign(0, -1), "", uint8(2))
	f.Add(int64(math.MinInt64), math.Inf(1), "a\x00b", uint8(5))
	f.Add(int64(8035), 1e300, "longer than ten", uint8(7))
	sch := types.NewSchema(
		types.Col("i", types.Int64),
		types.Col("d", types.Date),
		types.Char("s", 10),
		types.Col("f", types.Float64),
	)
	f.Fuzz(func(t *testing.T, i int64, fl float64, s string, nodes uint8) {
		n := 2 + int(nodes%6)
		vals := []types.Value{types.IntVal(i), types.DateVal(i), types.StrVal(s), types.FloatVal(fl)}
		for col, v := range vals {
			cat := catalog.New(n)
			tbl := &catalog.Table{Name: "t", Schema: sch, PartKey: []int{col}}
			cat.MustAdd(tbl)
			c := NewCluster(Config{Nodes: n, CoresPerNode: 1}, cat)
			tl, err := c.NewTableLoader("t")
			if err != nil {
				t.Fatal(err)
			}
			rec := tl.Row()
			clear(rec)
			types.PutValue(rec, sch, col, v)
			stored := types.GetValue(rec, sch, col)
			tl.Add()
			tl.Close()
			holder := -1
			for d := 0; d < n; d++ {
				part, err := c.stores[d].Partition("t")
				if err != nil {
					t.Fatal(err)
				}
				if part.Rows == 1 {
					holder = d
				}
			}
			c.Close()
			asks := []types.Value{stored}
			if v.Compare(stored) == 0 {
				asks = append(asks, v)
			}
			for _, a := range asks {
				pin, ok := pinOf(expr.NewCmp(expr.EQ, expr.NewCol(col, sch.Cols[col].Name), expr.NewConst(a)), tbl)
				if !ok {
					if a.Kind == types.Float64 && math.IsNaN(a.F) {
						continue // NaN pins nothing
					}
					t.Fatalf("%s = %v pins nothing", sch.Cols[col].Name, a)
				}
				for d := 0; d < n; d++ {
					if pin.owns(d, n) != (d == holder) {
						t.Fatalf("%s = %v on %d nodes: the row is on node %d, the pruner says node %d owns it is %v",
							sch.Cols[col].Name, a, n, holder, d, pin.owns(d, n))
					}
				}
			}
		}
	})
}
