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
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/elastic"
	"repro/internal/expr"
	"repro/internal/iterator"
	"repro/internal/storage"
	"repro/internal/types"
)

// pacedScan is the segment's source: it hands out the scan's blocks no
// faster than one per pace until release is closed, and at full speed
// after that. However fast the machine, the segment then still has
// input while the controller expands and shrinks it. A worker waiting
// for its turn answers a termination request, as the scan does.
type pacedScan struct {
	*iterator.Scan
	pace    time.Duration
	release chan struct{}

	mu   sync.Mutex
	next time.Time // when the next block may leave
}

func (p *pacedScan) Next(ctx *iterator.Ctx) (*block.Block, iterator.Status) {
	for {
		select {
		case <-p.release:
			return p.Scan.Next(ctx)
		default:
		}
		if ctx.Term.Requested() {
			return nil, iterator.Terminated
		}
		p.mu.Lock()
		now := time.Now()
		if !now.Before(p.next) {
			p.next = now.Add(p.pace)
			p.mu.Unlock()
			return p.Scan.Next(ctx)
		}
		wait := p.next.Sub(now)
		p.mu.Unlock()
		time.Sleep(wait)
	}
}

func main() {
	sch := types.NewSchema(
		types.Col("k", types.Int64),
		types.Col("v", types.Float64),
	)

	// One million rows in a node-local partition.
	part := new(storage.Store).CreatePartition("t", sch)
	loader := storage.NewLoader(part, 16*1024)
	const rows = 1_000_000
	rec := make([]byte, sch.Stride())
	for i := 0; i < rows; i++ {
		types.PutValue(rec, sch, 0, types.IntVal(int64(i%1024)))
		types.PutValue(rec, sch, 1, types.FloatVal(float64(i)))
		loader.Append(rec)
	}
	loader.Close()

	// The segment: scan → filter(k < 512) → hybrid hash aggregation.
	src := &pacedScan{Scan: iterator.NewScan(sch, part), pace: 200 * time.Microsecond,
		release: make(chan struct{})}
	chain := iterator.NewHashAgg(
		iterator.NewFilter(src, sch,
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
	// The controller is done: let the last worker read the rest.
	close(src.release)

	groups := <-results
	// A worker records its expansion delay (Expand to its first block)
	// when its Open returns, which for the blocking aggregation is when
	// it leaves the segment.
	for _, d := range el.ExpandDelays() {
		fmt.Printf("  expansion delay: %v (worker joined the shared hash build mid-flight)\n", d)
	}
	snap := el.Snapshot()
	fmt.Printf("\ndone: %d groups from %d input tuples; no tuple was lost or "+
		"duplicated across the expansions and shrinkages\n", groups, snap.InTuples)
	if groups != 512 {
		fmt.Printf("UNEXPECTED group count %d (want 512)\n", groups)
	}
	el.Close()
}
