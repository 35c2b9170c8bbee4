package main

import (
	"repro/internal/tpch"
)

// Data sizes. The data seed is fixed: --seed reaches the statement
// generator only, so every run of a workload queries the same tables.
const (
	dataSeed = 1
	// sseRows keeps the lookup working set far below every cache: a
	// lookup is microseconds of operator work, the rest is serving.
	sseRows = 2000
	// tpchSF sizes the analytic workloads (~300k lineitem, 75k orders).
	// It is the largest scale at which every statement id collects the
	// hundred samples its p90 needs within the time one run may take,
	// and it keeps orders above Config.FastPathRows (65536), so no
	// analytic statement is eligible for the serial fast path.
	tpchSF      = 0.05
	tpchSFSmoke = 0.01

	dataNodes    = 3
	coresPerNode = 2
	maxInflight  = 2
	// adhocPool is the number of distinct texts adhoc_text draws from:
	// 8x the default plan cache (256), so the cache thrashes.
	adhocPool = 2048
)

// workload is one traffic mix. All four are closed loops: each
// connection sends its next statement when the previous reply is
// complete and checked.
type workload struct {
	name string
	why  string // one line for BENCHMARK.json: why this workload exists
	tpch bool   // TPC-H tables; otherwise SSE trades/securities
	tcp  bool   // exchanges over loopback TCP sockets; otherwise in-process
	// conns is the number of client connections (nproc is 2).
	conns    int
	prepared bool // PREPARE once then EXECUTE; otherwise unprepared text
	// rounds cuts the measured window into equal parts, so that the
	// ones the host slowed can be told from the others (see
	// runEndToEnd): many short ones where a round still holds tens of
	// thousands of statements, five where it holds about a hundred.
	rounds int
	// tail is the tail percentile, fixed per workload so runs compare:
	// the highest with at least ten samples beyond it in a window, p99
	// at ten thousand samples and more, p90 at a hundred per statement id.
	tail     float64
	tailName string
	// traceEvery samples one statement in this many for spans and the
	// in-process replay during the traced run. On the analytic workloads
	// it is coprime with the rotation length, so every id is sampled.
	traceEvery int
	ids        []string // statement ids: the groups latencies are kept by

	// Layer probes: the table whose blocks feed the expr and block
	// kernels, a predicate and a key column this workload's statements
	// use on it, and a join that returns no rows (instantiate+teardown
	// of the parallel dataflow, which a join always takes).
	probeRows string
	probePred string
	probeKey  string
	emptyJoin string
}

const (
	lookupSQL = "SELECT acct_id, order_price, trade_volume FROM trades WHERE sec_code = "
	// keyTableSQL is the oracle for every lookup: per-key aggregates
	// computed by the aggregation path of a static-pipelining cluster,
	// which shares no operator with the lookup's filter path.
	keyTableSQL = "SELECT sec_code, count(*), sum(acct_id), sum(trade_time), sum(order_price), sum(trade_volume) FROM trades GROUP BY sec_code"

	sseEmptyJoin  = "SELECT t.acct_id FROM trades t, securities s WHERE t.acct_id = s.acct_id AND t.sec_code < 0"
	tpchEmptyJoin = "SELECT n_name FROM nation, region WHERE n_regionkey = r_regionkey AND r_regionkey < 0"
)

var analyticSQL = map[string]string{
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

// analyticIDs are the statement ids client.stmt_p50_ms.<id> reports.
var analyticIDs = []string{"q1", "q6", "sq4", "likecount", "jpart", "jcust", "q3", "q10"}

var workloads = []*workload{
	{
		name:  "lookup_prepared",
		why:   "2000-row table, 2 connections EXECUTE a prepared point lookup: serving layers (protocol, session, bind, fast path) do nearly all the work, kernels and network none",
		conns: 2, prepared: true, rounds: 20,
		tail: 0.99, tailName: "p99", traceEvery: 64,
		ids:       []string{"lookup"},
		probeRows: "SELECT * FROM trades", probePred: "sec_code = 600123", probeKey: "sec_code",
		emptyJoin: sseEmptyJoin,
	},
	{
		name:  "adhoc_text",
		why:   "same data, unprepared text from 2048 distinct statements (8x the plan cache): lex, parse, compile and cache misses dominate; bypasses what lookup_prepared exercises",
		conns: 2, rounds: 20,
		tail: 0.99, tailName: "p99", traceEvery: 64,
		ids:       []string{"lookup", "groupby"},
		probeRows: "SELECT * FROM trades", probePred: "sec_code = 600123", probeKey: "sec_code",
		emptyJoin: sseEmptyJoin,
	},
	{
		name: "scan_agg_inproc",
		why:  "TPC-H scans and aggregates on the in-process fabric, 1 connection: expr kernels, filter, hash aggregation and elastic scheduling do the work, the network almost none",
		tpch: true, conns: 1, rounds: 5,
		tail: 0.90, tailName: "p90", traceEvery: 5,
		ids:       []string{"q1", "q6", "sq4", "likecount"},
		probeRows: "SELECT * FROM lineitem WHERE l_orderkey < 40000",
		probePred: "l_shipdate >= date '1994-01-01' AND l_shipdate < date '1995-01-01' AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
		probeKey:  "l_commitdate",
		emptyJoin: tpchEmptyJoin,
	},
	{
		name: "join_repartition_tcp",
		why:  "TPC-H repartitioning joins over loopback TCP, 2 concurrent connections: wire codec, send windows, hash join, exchanges and cross-query core arbitration do the work",
		tpch: true, tcp: true, conns: 2, rounds: 5,
		tail: 0.90, tailName: "p90", traceEvery: 5,
		ids:       []string{"jpart", "jcust", "q3", "q10"},
		probeRows: "SELECT * FROM lineitem WHERE l_orderkey < 40000",
		probePred: "l_shipdate > date '1995-03-15'",
		probeKey:  "l_partkey",
		emptyJoin: tpchEmptyJoin,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func (w *workload) idIndex(id string) int {
	for i, s := range w.ids {
		if s == id {
			return i
		}
	}
	return -1
}
