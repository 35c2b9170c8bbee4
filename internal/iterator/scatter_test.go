package iterator

import (
	"fmt"
	"testing"

	"repro/internal/expr"
	"repro/internal/types"
)

// TestShardsIgnoreTheRoute: a join or aggregation instance only sees the
// rows the Sender routed to it by h % n, so its shards must come from
// bits the route did not fix. Keys 1…300 000 are routed to n
// destinations exactly as a Sender does, and the rows of every
// destination must reach at least 60 of its 64 shards. Sharding by the
// low six bits reaches 32 for n = 2, 16 for n = 4 and 32 for n = 6.
func TestShardsIgnoreTheRoute(t *testing.T) {
	sch := types.NewSchema(types.Col("k", types.Int64))
	p := buildPartition(sch, 300_000, 64<<10, func(i int, rec []byte) {
		types.PutValue(rec, sch, 0, types.IntVal(int64(i+1)))
	})
	keys := expr.NewBatchKeyEncoder([]expr.Expr{expr.NewCol(0, "k")}, sch)
	for _, n := range []int{2, 3, 4, 6} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			reached := make([][1 << shardBits]bool, n)
			var route, byShard scatter
			for _, b := range p.Blocks {
				rows := keys.EncodeBlock(b, nil)
				for d, sel := range route.split(keys, nil, rows, n) {
					for shi, s := range byShard.shards(keys, sel, rows) {
						if len(s) > 0 {
							reached[d][shi] = true
						}
					}
				}
			}
			for d := range reached {
				got := 0
				for _, ok := range reached[d] {
					if ok {
						got++
					}
				}
				if got < 60 {
					t.Errorf("destination %d of %d: its rows reach %d of %d shards", d, n, got, 1<<shardBits)
				}
			}
		})
	}
}
