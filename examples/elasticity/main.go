// Elasticity: drive the elastic iterator model directly — the
// Section 3 machinery without the SQL engine on top. A segment (scan →
// filter → aggregation) runs under a hand-rolled controller that
// expands and shrinks its worker pool while it processes, demonstrating
// state sharing, the termination protocol and the measured expansion /
// shrinkage overheads of Figure 9.
//
//	go run ./examples/elasticity
package main

import (
	"fmt"
	"time"

	"repro/internal/elastic"
	"repro/internal/expr"
	"repro/internal/iterator"
	"repro/internal/storage"
	"repro/internal/types"
)

func main() {
	sch := types.NewSchema(
		types.Col("k", types.Int64),
		types.Col("v", types.Float64),
	)

	// One million rows in a node-local partition.
	part := new(storage.Store).CreatePartition("t", sch)
	loader := storage.NewLoader(part, 16*1024)
	const rows = 1_000_000
	for i := 0; i < rows; i++ {
		rec := loader.Row() // the slot is committed in place
		types.PutValue(rec, sch, 0, types.IntVal(int64(i%1024)))
		types.PutValue(rec, sch, 1, types.FloatVal(float64(i)))
	}
	loader.Close()

	// The segment: scan → filter(k < 512) → hybrid hash aggregation.
	chain := iterator.NewHashAgg(
		iterator.NewFilter(iterator.NewScan(sch, part), sch,
			expr.NewCmp(expr.LT, expr.NewCol(0, "k"), expr.NewConst(types.IntVal(512)))),
		sch,
		[]expr.Expr{expr.NewCol(0, "k")}, []string{"k"},
		[]iterator.AggSpec{
			{Func: iterator.Sum, Arg: expr.NewCol(1, "v"), Name: "sum_v"},
			{Func: iterator.Count, Name: "n"},
		},
		iterator.HybridAgg,
	)

	el := elastic.New(chain, elastic.Config{BufferCap: 128})
	fmt.Println("starting with 1 worker...")
	el.Expand()

	// Consumer drains the segment's output buffer.
	results := make(chan int, 1)
	go func() {
		ctx := &iterator.Ctx{Term: &iterator.TermFlag{}}
		groups := 0
		for {
			b, st := el.Next(ctx)
			if st != iterator.OK {
				results <- groups
				return
			}
			groups += b.NumTuples()
		}
	}()

	// The controller: expand to 4 workers, then shrink back to 1,
	// printing the measured delays — while the segment keeps running.
	for w := 1; w <= 3; w++ {
		time.Sleep(3 * time.Millisecond)
		el.Expand()
		fmt.Printf("expanded to %d workers\n", el.Parallelism())
	}
	for _, d := range el.ExpandDelays() {
		fmt.Printf("  expansion delay: %v (worker joined the shared hash build mid-flight)\n", d)
	}
	for el.Parallelism() > 1 {
		time.Sleep(2 * time.Millisecond)
		if ch := el.Shrink(); ch != nil {
			select {
			case d := <-ch:
				fmt.Printf("shrunk to %d workers (delay %v — finished its block, "+
					"parked its private table for reuse)\n", el.Parallelism(), d)
			case <-time.After(time.Second):
				fmt.Println("shrink still draining")
			}
		}
	}

	groups := <-results
	snap := el.Snapshot()
	fmt.Printf("\ndone: %d groups from %d input tuples; no tuple was lost or "+
		"duplicated across the expansions and shrinkages\n", groups, snap.InTuples)
	if groups != 512 {
		fmt.Printf("UNEXPECTED group count %d (want 512)\n", groups)
	}
	el.Close()
}
