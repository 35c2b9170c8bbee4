package engine

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/iterator"
	"repro/internal/plan"
	"repro/internal/types"
)

// lookupCluster is a three-node cluster holding lk(k, v): 2 000 rows,
// ten for each k in 0..199, partitioned on k.
func lookupCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	sch := types.NewSchema(types.Col("k", types.Int64), types.Col("v", types.Float64))
	cat := catalog.New(cfg.Nodes)
	cat.MustAdd(&catalog.Table{Name: "lk", Schema: sch, PartKey: []int{0}})
	c := NewCluster(cfg, cat)
	t.Cleanup(c.Close)
	tl, err := c.NewTableLoader("lk")
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2000; r++ {
		rec := tl.Row()
		types.PutValue(rec, sch, 0, types.IntVal(int64(r%200)))
		types.PutValue(rec, sch, 1, types.FloatVal(float64(r)))
		tl.Add()
	}
	tl.Close()
	return c
}

// drainCounting opens and drains it on one worker and returns the
// tuples its stage beginners read and the rows it emitted.
func drainCounting(t *testing.T, it iterator.Iterator) (read, rows int) {
	t.Helper()
	ctx := &iterator.Ctx{Term: &iterator.TermFlag{}, OnBlockDone: func(n int) { read += n }}
	defer it.Close()
	if st := it.Open(ctx); st != iterator.OK {
		t.Fatalf("open: %v", st)
	}
	for {
		b, st := it.Next(ctx)
		if st != iterator.OK {
			return read, rows
		}
		rows += b.NumTuples()
	}
}

// TestPreparedLookupReadsOnePartition: a prepared lookup on the
// partition key reads the rows of the one partition that holds its key,
// on the serial driver (one fused scan over the owners' partitions) and
// on the parallel one (every node's instance; those that own nothing
// read nothing), and EXPLAIN ANALYZE says so.
func TestPreparedLookupReadsOnePartition(t *testing.T) {
	c := lookupCluster(t, Config{Nodes: 3, CoresPerNode: 2, FastPath: true})
	p, _, err := c.CompileCached("SELECT v FROM lk WHERE k = $1")
	if err != nil {
		t.Fatal(err)
	}
	if !c.fastEligible(p) {
		t.Fatal("the lookup does not take the serial driver")
	}
	seg := p.Segments[0]
	partRows := func(node int) int {
		part, err := c.store(node).Partition("lk")
		if err != nil {
			t.Fatal(err)
		}
		return int(part.Rows)
	}
	for key := int64(0); key < 12; key++ {
		args := []types.Value{types.IntVal(key)}
		owner := ownerOf(args, 3)

		e := &exec{c: c, p: p, args: args, serial: true}
		e.place()
		it, err := e.buildOp(seg.Root, buildEnv{seg: seg})
		if err != nil {
			t.Fatal(err)
		}
		if read, rows := drainCounting(t, it); read != partRows(owner) || rows != 10 {
			t.Errorf("serial, k = %d: read %d rows and kept %d; node %d holds the key in %d rows, 10 match",
				key, read, rows, owner, partRows(owner))
		}

		e = &exec{c: c, p: p, args: args}
		e.place()
		for node := 0; node < 3; node++ {
			it, err := e.buildOp(seg.Root, buildEnv{seg: seg, node: node, inst: &segInst{}})
			if err != nil {
				t.Fatal(err)
			}
			want, wantRows := 0, 0
			if node == owner {
				want, wantRows = partRows(node), 10
			}
			if read, rows := drainCounting(t, it); read != want || rows != wantRows {
				t.Errorf("parallel, k = %d, node %d: read %d rows and kept %d, want %d and %d",
					key, node, read, rows, want, wantRows)
			}
		}
	}
}

// TestAnalyzeCountsScannedPartitions: EXPLAIN ANALYZE's parts=read/of
// on the scan of a lookup pinned by = (one owner), by IN (the keys'
// owners), by a constant of another kind (every partition: the float
// hashes unlike the integer it equals) and of an unpinned scan.
func TestAnalyzeCountsScannedPartitions(t *testing.T) {
	c := lookupCluster(t, Config{Nodes: 3, CoresPerNode: 2})
	// Two keys with different owners.
	a, b := int64(0), int64(1)
	for ownerOf([]types.Value{types.IntVal(b)}, 3) == ownerOf([]types.Value{types.IntVal(a)}, 3) {
		b++
	}
	for _, tc := range []struct {
		sql        string
		rows, read int64
	}{
		{"SELECT v FROM lk WHERE k = 7", 10, 1},
		{fmt.Sprintf("SELECT v FROM lk WHERE k IN (%d, %d)", a, b), 20, 2},
		{"SELECT v FROM lk WHERE k = 7.0", 10, 3},
		{"SELECT v FROM lk WHERE k = 7 AND v > 1000", 5, 1},
		{"SELECT v FROM lk WHERE v > 1000", 999, 3},
	} {
		res, err := c.Exec(context.Background(), Request{SQL: tc.sql, Analyze: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if got := int64(res.NumRows()); got != tc.rows {
			t.Errorf("%s: %d rows, want %d", tc.sql, got, tc.rows)
		}
		var scan *plan.PScan
		for _, seg := range res.Analysis.Plan.Segments {
			plan.Walk(seg.Root, func(op plan.PhysOp) {
				if s, ok := op.(*plan.PScan); ok {
					scan = s
				}
			})
		}
		read, of, ok := res.Analysis.ScanParts(scan)
		if !ok || read != tc.read || of != 3 {
			t.Errorf("%s: parts=%d/%d (ok %v), want %d/3\n%s", tc.sql, read, of, ok, tc.read, res.Analysis.Render())
		}
	}
}
