package engine_test

import (
	"context"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/sse"
	"repro/internal/types"
)

// BenchmarkPreparedLookup times one EXECUTE of the serving workload's
// point lookup in process, with no socket around it: SSE with 2 000
// rows on 3 data nodes of 2 cores, EP with the fast path, the plan
// compiled once and the key cycling over the 1 000 sec codes. Run it
// with -benchmem: allocs/op is the statement's whole allocation bill.
func BenchmarkPreparedLookup(b *testing.B) {
	const rows = 2000
	cat := catalog.New(3)
	sse.RegisterTables(cat, rows)
	c := engine.NewCluster(engine.Config{Nodes: 3, CoresPerNode: 2, Mode: engine.EP, FastPath: true}, cat)
	defer c.Close()
	if err := sse.Load(c, sse.GenConfig{Rows: rows, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	p, _, err := c.CompileCached("SELECT acct_id, order_price, trade_volume FROM trades WHERE sec_code = $1")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	args := make([]types.Value, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		args[0] = types.IntVal(int64(600000 + i%1000))
		if _, err := c.Exec(ctx, engine.Request{SQL: "execute", Plan: p, Args: args}); err != nil {
			b.Fatal(err)
		}
	}
}
