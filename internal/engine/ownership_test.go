package engine_test

import (
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/sse"
	"repro/internal/tpch"
)

// benchmarkStatements are the statements of the repository benchmark's
// four workloads (benchmark/workloads.go, benchmark/gen.go), by id.
var benchmarkStatements = map[string]string{
	"lookup":    "SELECT acct_id, order_price, trade_volume FROM trades WHERE sec_code = 600016",
	"groupby":   "SELECT sec_code, count(*), sum(trade_volume) FROM trades WHERE sec_code IN (600016, 600017, 600018, 600019) GROUP BY sec_code",
	"q1":        tpch.Queries["Q1"],
	"q6":        tpch.Queries["Q6"],
	"sq4":       tpch.SyntheticQueries["S-Q4"],
	"likecount": "SELECT count(*) FROM orders WHERE o_comment NOT LIKE '%special%requests%'",
	"jpart": "SELECT p_brand, p_type, sum(l_quantity), sum(l_extendedprice), sum(l_discount) " +
		"FROM lineitem, part WHERE l_partkey = p_partkey GROUP BY p_brand, p_type",
	"jcust": "SELECT c_mktsegment, count(*), sum(o_totalprice) " +
		"FROM orders, customer WHERE o_custkey = c_custkey GROUP BY c_mktsegment",
	"q3":  tpch.Queries["Q3"],
	"q10": tpch.Queries["Q10"],
}

// TestSharedBlocksSurviveRecycle: every operator now recycles its input
// without knowing where it came from, and a scan hands out the table's
// own payloads. Run every benchmark statement twice, on both fabrics,
// and no storage block may change by a byte.
func TestSharedBlocksSurviveRecycle(t *testing.T) {
	const sf, sseRows = 0.01, 20000
	for _, tcp := range []bool{false, true} {
		t.Run(fmt.Sprintf("tcp=%v", tcp), func(t *testing.T) {
			cat := catalog.New(3)
			tpch.RegisterTables(cat, sf)
			sse.RegisterTables(cat, sseRows)
			cfg := engine.Config{Nodes: 3, CoresPerNode: 2, Mode: engine.EP, FastPath: true}
			c := engine.NewCluster(cfg, cat)
			if tcp {
				var err error
				if c, err = engine.NewClusterTCP(cfg, cat); err != nil {
					t.Fatal(err)
				}
			}
			defer c.Close()
			if err := tpch.Load(c, sf, 1); err != nil {
				t.Fatal(err)
			}
			if err := sse.Load(c, sse.GenConfig{Rows: sseRows, Seed: 7}); err != nil {
				t.Fatal(err)
			}
			sums := func() map[string]uint32 {
				out := make(map[string]uint32)
				for _, tbl := range cat.Names() {
					for node := 0; node < cfg.Nodes; node++ {
						blocks, err := c.TableBlocks(node, tbl)
						if err != nil {
							t.Fatal(err)
						}
						for i, b := range blocks {
							out[fmt.Sprintf("%s/node%d/block%d/%d rows", tbl, node, i, b.NumTuples())] =
								crc32.ChecksumIEEE(b.EncodeAppend(nil))
						}
					}
				}
				return out
			}
			before := sums()
			if len(before) < 100 {
				t.Fatalf("only %d storage blocks; the check would be thin", len(before))
			}
			for pass := 0; pass < 2; pass++ {
				for id, q := range benchmarkStatements {
					res, err := c.Run(q)
					if err != nil {
						t.Fatalf("%s: %v", id, err)
					}
					if res.NumRows() == 0 {
						t.Fatalf("%s returned no rows", id)
					}
				}
				after := sums()
				if len(after) != len(before) {
					t.Fatalf("pass %d: %d storage blocks, %d before", pass, len(after), len(before))
				}
				for k, v := range before {
					if after[k] != v {
						t.Errorf("pass %d: storage block %s changed", pass, k)
					}
				}
			}
		})
	}
}

// TestBuildSideIsSmallerInput: a join builds its table on the side the
// binder estimates smaller, whichever way round FROM lists them — the
// dimension table here, so the repartitioned fact rows stream through
// the probe instead of being materialized before the first one.
func TestBuildSideIsSmallerInput(t *testing.T) {
	cat := catalog.New(3)
	tpch.RegisterTables(cat, 0.05)
	for _, c := range []struct{ name, sql, build string }{
		{"jpart", benchmarkStatements["jpart"], "part"},
		{"jpart-reversed", strings.Replace(benchmarkStatements["jpart"], "FROM lineitem, part", "FROM part, lineitem", 1), "part"},
		{"jcust", benchmarkStatements["jcust"], "customer"},
		{"jcust-reversed", strings.Replace(benchmarkStatements["jcust"], "FROM orders, customer", "FROM customer, orders", 1), "customer"},
	} {
		p, err := plan.Compile(c.sql, cat)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		joins := 0
		for _, seg := range p.Segments {
			plan.Walk(seg.Root, func(op plan.PhysOp) {
				hj, ok := op.(*plan.PHashJoin)
				if !ok {
					return
				}
				joins++
				var scans []string
				plan.Walk(hj.Build, func(op plan.PhysOp) {
					if s, ok := op.(*plan.PScan); ok {
						scans = append(scans, s.Table.Name)
					}
				})
				if len(scans) != 1 || scans[0] != c.build {
					t.Errorf("%s: the join builds on %v, want a scan of %s:\n%s", c.name, scans, c.build, p)
				}
			})
		}
		if joins != 1 {
			t.Errorf("%s: %d joins planned, want 1", c.name, joins)
		}
	}
}
