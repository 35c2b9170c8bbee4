package engine

import (
	"fmt"
	"testing"

	"repro/internal/block"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/iterator"
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
// must send a key to the same node. For part keys of each kind and a
// composite one, on n = 2, 3 and 5 nodes, every row loaded onto node d
// is routed to destination d by a Sender on the same key.
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
				cat.MustAdd(&catalog.Table{Name: "t", Schema: sch, PartKey: key.cols})
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
					types.PutValue(rec, sch, 3, types.FloatVal(float64(r)/8))
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
					if err := iterator.NewSender(iterator.NewScan(part), sch, out, keys).Run(&iterator.Ctx{Term: &iterator.TermFlag{}}); err != nil {
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
				}
				if total != rows {
					t.Fatalf("the nodes hold %d rows, %d were loaded", total, rows)
				}
			})
		}
	}
}
