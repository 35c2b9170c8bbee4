package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/catalog"
	"repro/internal/network"
	"repro/internal/plan"
	"repro/internal/telemetry"
	"repro/internal/types"
)

// buildTestCluster creates a small cluster with two synthetic tables
// shaped like the paper's SSE schema: trades partitioned on sec_code,
// securities on acct_id (so joins on acct_id need repartitioning).
func buildTestCluster(t *testing.T, mode Mode, nodes int) (*Cluster, *refData) {
	t.Helper()
	cat := catalog.New(nodes)
	trades := types.NewSchema(
		types.Col("acct_id", types.Int64),
		types.Col("sec_code", types.Int64),
		types.Col("trade_date", types.Date),
		types.Col("trade_volume", types.Float64),
	)
	cat.MustAdd(&catalog.Table{Name: "trades", Schema: trades, PartKey: []int{1}})
	secs := types.NewSchema(
		types.Col("acct_id", types.Int64),
		types.Col("sec_code", types.Int64),
		types.Col("entry_date", types.Date),
		types.Col("entry_volume", types.Float64),
	)
	cat.MustAdd(&catalog.Table{Name: "securities", Schema: secs, PartKey: []int{0}})

	c := NewCluster(Config{
		Nodes:          nodes,
		CoresPerNode:   2,
		Mode:           mode,
		BlockSize:      2048,
		SchedTick:      5e6, // 5ms
		ExchangeBuffer: 8,   // small pipelined staging highlights ME's cost
	}, cat)

	ref := &refData{}
	rng := rand.New(rand.NewSource(42))
	day := types.MustParseDate("2010-10-30")

	tl, err := c.NewTableLoader("trades")
	if err != nil {
		t.Fatal(err)
	}
	const nTrades = 8000
	for i := 0; i < nTrades; i++ {
		r := tl.Row()
		acct := int64(rng.Intn(500))
		sec := int64(rng.Intn(50))
		d := day - int64(rng.Intn(5))
		vol := float64(rng.Intn(1000))
		types.PutValue(r, trades, 0, types.IntVal(acct))
		types.PutValue(r, trades, 1, types.IntVal(sec))
		types.PutValue(r, trades, 2, types.DateVal(d))
		types.PutValue(r, trades, 3, types.FloatVal(vol))
		tl.Add()
		ref.trades = append(ref.trades, tradeRow{acct, sec, d, vol})
	}
	tl.Close()

	sl, err := c.NewTableLoader("securities")
	if err != nil {
		t.Fatal(err)
	}
	const nSecs = 2000
	for i := 0; i < nSecs; i++ {
		r := sl.Row()
		acct := int64(rng.Intn(500))
		sec := int64(rng.Intn(50))
		d := day - int64(rng.Intn(3))
		vol := float64(rng.Intn(1000))
		types.PutValue(r, secs, 0, types.IntVal(acct))
		types.PutValue(r, secs, 1, types.IntVal(sec))
		types.PutValue(r, secs, 2, types.DateVal(d))
		types.PutValue(r, secs, 3, types.FloatVal(vol))
		sl.Add()
		ref.secs = append(ref.secs, tradeRow{acct, sec, d, vol})
	}
	sl.Close()
	return c, ref
}

type tradeRow struct {
	acct, sec, date int64
	vol             float64
}

type refData struct {
	trades []tradeRow
	secs   []tradeRow
}

func TestFilterQueryAllModes(t *testing.T) {
	day := types.MustParseDate("2010-10-30")
	for _, mode := range []Mode{EP, SP, ME} {
		c, ref := buildTestCluster(t, mode, 3)
		res, err := c.Run("SELECT * FROM trades WHERE trade_date = '2010-10-30'")
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		want := 0
		for _, r := range ref.trades {
			if r.date == day {
				want++
			}
		}
		if got := res.NumRows(); got != want {
			t.Fatalf("%v: rows = %d, want %d", mode, got, want)
		}
	}
}

func TestGroupByQueryAllModes(t *testing.T) {
	// SSE-Q7 shape: two-phase aggregation (trades partitioned on
	// sec_code, grouped by acct_id).
	for _, mode := range []Mode{EP, SP, ME} {
		c, ref := buildTestCluster(t, mode, 3)
		res, err := c.Run("SELECT acct_id, sum(trade_volume) FROM trades GROUP BY acct_id")
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		want := map[int64]float64{}
		for _, r := range ref.trades {
			want[r.acct] += r.vol
		}
		if got := res.NumRows(); got != len(want) {
			t.Fatalf("%v: groups = %d, want %d", mode, got, len(want))
		}
		for _, row := range res.Rows() {
			if w := want[row[0].I]; row[1].F != w {
				t.Fatalf("%v: acct %d sum = %f, want %f", mode, row[0].I, row[1].F, w)
			}
		}
	}
}

// TestLongComputedStringKeysStayDistinct: a computed string column is
// as wide as its longest value. Two CASE arms that differ only past
// byte 32 used to be cut to 32 bytes in the partial aggregation's
// output and merged into one group by the final one; projected, they
// came out cut.
func TestLongComputedStringKeysStayDistinct(t *testing.T) {
	const long = "abcdefghijklmnopqrstuvwxyz0123456789ABCDE-"
	kase := "CASE WHEN trade_volume < 500 THEN '" + long + "A' ELSE '" + long + "B' END"
	for _, mode := range []Mode{EP, SP} {
		c, ref := buildTestCluster(t, mode, 3)
		want := map[string]int64{}
		for _, r := range ref.trades {
			if r.vol < 500 {
				want[long+"A"]++
			} else {
				want[long+"B"]++
			}
		}
		res, err := c.Run("SELECT " + kase + " AS k, count(*) FROM trades GROUP BY " + kase)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.NumRows() != len(want) {
			t.Fatalf("%v: GROUP BY gave %d groups, want %d", mode, res.NumRows(), len(want))
		}
		for _, row := range res.Rows() {
			if n, ok := want[row[0].S]; !ok || row[1].I != n {
				t.Errorf("%v: GROUP BY row %q | %d, want one of %v", mode, row[0].S, row[1].I, want)
			}
		}
		res, err = c.Run("SELECT acct_id, " + kase + " AS k FROM trades")
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		got := map[string]int64{}
		for _, row := range res.Rows() {
			got[row[1].S]++
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%v: projected %v, want %v", mode, got, want)
		}
	}
}

// TestStringExtremesKeepTheirWidth: MIN and MAX of a string are as wide
// as the string. Their output column used to be 8 bytes, whatever the
// argument, so a longer string came back cut to its first 8 bytes (and
// a column narrower than 8 would now misplace the group keys, which the
// aggregation located by assuming 8 bytes an aggregate).
func TestStringExtremesKeepTheirWidth(t *testing.T) {
	const long = "abcdefghijklmnopqrstuvwxyz0123456789ABCDE-"
	for _, arm := range []string{long, ""} {
		kase := "CASE WHEN trade_volume < 500 THEN '" + arm + "A' ELSE '" + arm + "B' END"
		for _, mode := range []Mode{EP, SP} {
			c, _ := buildTestCluster(t, mode, 3)
			for _, q := range []string{
				"SELECT min(" + kase + "), max(" + kase + ") FROM trades",
				"SELECT sec_code, min(" + kase + "), max(" + kase + ") FROM trades WHERE sec_code < 3 GROUP BY sec_code",
			} {
				res, err := c.Run(q)
				if err != nil {
					t.Fatalf("%v: %v", mode, err)
				}
				for _, row := range res.Rows() {
					if lo, hi := row[len(row)-2].S, row[len(row)-1].S; lo != arm+"A" || hi != arm+"B" {
						t.Errorf("%v: %s\ngave %v", mode, q, row)
					}
				}
			}
		}
	}
}

func TestJoinAggQueryAllModes(t *testing.T) {
	// SSE-Q9: repartition join + two-phase aggregation — the paper's
	// flagship query (three segments, two pipelines).
	q := `SELECT sec_code, acct_id, sum(trade_volume), sum(entry_volume)
	      FROM Trades T, Securities S
	      WHERE T.trade_date = '2010-10-30' AND S.entry_date = '2010-10-30'
	      AND T.acct_id = S.acct_id
	      GROUP BY T.sec_code, S.acct_id`
	day := types.MustParseDate("2010-10-30")

	type key struct{ sec, acct int64 }
	var refAgg map[key][2]float64
	computeRef := func(ref *refData) {
		refAgg = map[key][2]float64{}
		for _, tr := range ref.trades {
			if tr.date != day {
				continue
			}
			for _, s := range ref.secs {
				if s.date != day || s.acct != tr.acct {
					continue
				}
				k := key{tr.sec, tr.acct}
				v := refAgg[k]
				v[0] += tr.vol
				v[1] += s.vol
				refAgg[k] = v
			}
		}
	}

	for _, mode := range []Mode{EP, SP, ME} {
		c, ref := buildTestCluster(t, mode, 3)
		computeRef(ref)
		res, err := c.Run(q)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got := res.NumRows(); got != len(refAgg) {
			t.Fatalf("%v: groups = %d, want %d", mode, got, len(refAgg))
		}
		for _, row := range res.Rows() {
			k := key{row[0].I, row[1].I}
			w, ok := refAgg[k]
			if !ok {
				t.Fatalf("%v: unexpected group %+v", mode, k)
			}
			if row[2].F != w[0] || row[3].F != w[1] {
				t.Fatalf("%v: group %+v sums = (%f, %f), want (%f, %f)",
					mode, k, row[2].F, row[3].F, w[0], w[1])
			}
		}
	}
}

// TestScalarExtremesSkipEmptyNodes: trades is partitioned on sec_code,
// so a filter on one sec_code leaves all but one node without input.
// Each node's partial aggregation used to emit its row anyway, zeros
// standing for "no value", and the final MIN took the zero. Empty input
// everywhere still gives the one row of zeros (DESIGN.md §10's dialect
// rule for aggregates over no rows).
func TestScalarExtremesSkipEmptyNodes(t *testing.T) {
	for _, mode := range []Mode{EP, SP, ME} {
		c, ref := buildTestCluster(t, mode, 3)
		for _, above := range []float64{100, 5000} {
			q := fmt.Sprintf("SELECT min(trade_volume), max(trade_volume), count(*), avg(trade_volume) FROM trades WHERE sec_code = 3 AND trade_volume > %g", above)
			var lo, hi, sum float64
			var n int64
			for _, r := range ref.trades {
				if r.sec == 3 && r.vol > above {
					if n == 0 || r.vol < lo {
						lo = r.vol
					}
					hi = max(hi, r.vol)
					sum += r.vol
					n++
				}
			}
			avg := 0.0
			if n > 0 {
				avg = sum / float64(n)
			}
			res, err := c.Run(q)
			if err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
			if res.NumRows() != 1 {
				t.Fatalf("%v: %s returned %d rows", mode, q, res.NumRows())
			}
			if got := res.Rows()[0]; got[0].F != lo || got[1].F != hi || got[2].I != n || math.Abs(got[3].F-avg) > 1e-9*avg {
				t.Errorf("%v: %s = %v, want [%g %g %d %g]", mode, q, got, lo, hi, n, avg)
			}
		}
	}
}

func TestScalarCountAllModes(t *testing.T) {
	// SSE-Q6 shape: scalar count over a repartition join.
	q := `SELECT count(*) FROM trades T, securities S
	      WHERE S.sec_code = 7 AND T.trade_date = '2010-10-30'
	      AND S.acct_id = T.acct_id`
	day := types.MustParseDate("2010-10-30")
	for _, mode := range []Mode{EP, SP, ME} {
		c, ref := buildTestCluster(t, mode, 2)
		want := int64(0)
		for _, tr := range ref.trades {
			if tr.date != day {
				continue
			}
			for _, s := range ref.secs {
				if s.sec == 7 && s.acct == tr.acct {
					want++
				}
			}
		}
		res, err := c.Run(q)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.NumRows() != 1 {
			t.Fatalf("%v: scalar agg returned %d rows", mode, res.NumRows())
		}
		if got := res.Rows()[0][0].I; got != want {
			t.Fatalf("%v: count = %d, want %d", mode, got, want)
		}
	}
}

func TestOrderByLimit(t *testing.T) {
	c, ref := buildTestCluster(t, EP, 3)
	res, err := c.Run(`SELECT acct_id, sum(trade_volume) AS vol FROM trades
		GROUP BY acct_id ORDER BY vol DESC LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	sums := map[int64]float64{}
	for _, r := range ref.trades {
		sums[r.acct] += r.vol
	}
	var vols []float64
	for _, v := range sums {
		vols = append(vols, v)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vols)))
	rows := res.Rows()
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	for i, row := range rows {
		if row[1].F != vols[i] {
			t.Fatalf("rank %d: vol = %f, want %f", i, row[1].F, vols[i])
		}
	}
}

func TestOrderBySorted(t *testing.T) {
	c, _ := buildTestCluster(t, EP, 2)
	res, err := c.Run(`SELECT acct_id, sum(trade_volume) AS vol FROM trades
		GROUP BY acct_id ORDER BY acct_id`)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	for i := 1; i < len(rows); i++ {
		if rows[i-1][0].I > rows[i][0].I {
			t.Fatalf("result not sorted at %d", i)
		}
	}
}

func TestMEUsesMoreMemoryThanEP(t *testing.T) {
	// Table 4's qualitative claim: materialized execution stages whole
	// intermediate results, pipelined execution does not.
	q := `SELECT sec_code, acct_id, sum(trade_volume)
	      FROM Trades T, Securities S
	      WHERE T.acct_id = S.acct_id
	      GROUP BY T.sec_code, S.acct_id`
	cEP, _ := buildTestCluster(t, EP, 3)
	rEP, err := cEP.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	cME, _ := buildTestCluster(t, ME, 3)
	rME, err := cME.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if rME.Stats.PeakMemoryBytes <= rEP.Stats.PeakMemoryBytes {
		t.Fatalf("ME peak (%d) should exceed EP peak (%d)",
			rME.Stats.PeakMemoryBytes, rEP.Stats.PeakMemoryBytes)
	}
	if rEP.NumRows() != rME.NumRows() {
		t.Fatalf("EP and ME disagree: %d vs %d rows", rEP.NumRows(), rME.NumRows())
	}
}

func TestSingleNodeCluster(t *testing.T) {
	c, ref := buildTestCluster(t, EP, 1)
	res, err := c.Run("SELECT count(*) FROM trades")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows()[0][0].I; got != int64(len(ref.trades)) {
		t.Fatalf("count = %d, want %d", got, len(ref.trades))
	}
}

func TestSPWithHigherParallelism(t *testing.T) {
	cat := catalog.New(2)
	sch := types.NewSchema(types.Col("k", types.Int64), types.Col("v", types.Int64))
	cat.MustAdd(&catalog.Table{Name: "t", Schema: sch, PartKey: []int{0}})
	c := NewCluster(Config{Nodes: 2, CoresPerNode: 4, Mode: SP, FixedParallelism: 3,
		BlockSize: 1024}, cat)
	tl, _ := c.NewTableLoader("t")
	for i := 0; i < 5000; i++ {
		r := tl.Row()
		types.PutValue(r, sch, 0, types.IntVal(int64(i)))
		types.PutValue(r, sch, 1, types.IntVal(int64(i%7)))
		tl.Add()
	}
	tl.Close()
	res, err := c.Run("SELECT v, count(*) FROM t GROUP BY v")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 7 {
		t.Fatalf("groups = %d", res.NumRows())
	}
	total := int64(0)
	for _, row := range res.Rows() {
		total += row[1].I
	}
	if total != 5000 {
		t.Fatalf("counts sum to %d", total)
	}
}

func TestNetworkBytesAccounted(t *testing.T) {
	c, _ := buildTestCluster(t, EP, 3)
	res, err := c.Run("SELECT acct_id, sum(trade_volume) FROM trades GROUP BY acct_id")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NetworkBytes == 0 {
		t.Fatal("two-phase agg across 3 nodes must move bytes over the NIC")
	}
}

func TestEPProducesTrace(t *testing.T) {
	c, _ := buildTestCluster(t, EP, 2)
	res, err := c.Run(`SELECT sec_code, acct_id, sum(trade_volume)
		FROM Trades T, Securities S WHERE T.acct_id = S.acct_id
		GROUP BY T.sec_code, S.acct_id`)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	// The trace may be empty for sub-25ms queries; just ensure the
	// field is usable.
	for _, s := range res.Stats.Trace {
		if len(s.Parallelism) == 0 {
			t.Fatal("trace sample without segments")
		}
	}
}

func TestResultRendering(t *testing.T) {
	c, _ := buildTestCluster(t, EP, 2)
	res, err := c.Run("SELECT acct_id, sum(trade_volume) AS vol FROM trades GROUP BY acct_id LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Names) != 2 || res.Names[1] != "vol" {
		t.Fatalf("names = %v", res.Names)
	}
	if res.NumRows() != 5 {
		t.Fatalf("limit ignored: %d rows", res.NumRows())
	}
	for _, row := range res.Rows() {
		if len(row) != 2 {
			t.Fatal("row width mismatch")
		}
	}
	_ = fmt.Sprintf("%v", res.Rows())
}

func TestHavingClause(t *testing.T) {
	c, ref := buildTestCluster(t, EP, 2)
	res, err := c.Run(`SELECT acct_id, count(*) AS n FROM trades
		GROUP BY acct_id HAVING count(*) > 20`)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int64]int64{}
	for _, r := range ref.trades {
		counts[r.acct]++
	}
	want := 0
	for _, n := range counts {
		if n > 20 {
			want++
		}
	}
	if got := res.NumRows(); got != want {
		t.Fatalf("HAVING groups = %d, want %d", got, want)
	}
	for _, row := range res.Rows() {
		if row[1].I <= 20 {
			t.Fatalf("group %d with count %d leaked through HAVING", row[0].I, row[1].I)
		}
	}
}

// TestGroupedPredicates: BETWEEN and IN over an aggregate in HAVING, and
// over a group key in the SELECT list, bind above the aggregation and
// return the reference answer in every mode.
func TestGroupedPredicates(t *testing.T) {
	for _, mode := range []Mode{EP, SP, ME} {
		c, ref := buildTestCluster(t, mode, 2)
		perAcct, perSec := map[int64]int64{}, map[int64]int64{}
		for _, r := range ref.trades {
			perAcct[r.acct]++
			perSec[r.sec]++
		}
		// want renders the reference rows, one "a b c" line per group.
		want := func(counts map[int64]int64, row func(k, n int64) string) []string {
			var out []string
			for k, n := range counts {
				if r := row(k, n); r != "" {
					out = append(out, r)
				}
			}
			sort.Strings(out)
			return out
		}
		boolOf := func(ok bool) int64 {
			if ok {
				return 1
			}
			return 0
		}
		cases := []struct {
			sql  string
			want []string
		}{
			{`SELECT acct_id, count(*) AS n FROM trades GROUP BY acct_id HAVING count(*) BETWEEN 10 AND 20`,
				want(perAcct, func(k, n int64) string {
					if n < 10 || n > 20 {
						return ""
					}
					return fmt.Sprint(k, n)
				})},
			{`SELECT acct_id, count(*) AS n FROM trades GROUP BY acct_id HAVING count(*) IN (15, 16)`,
				want(perAcct, func(k, n int64) string {
					if n != 15 && n != 16 {
						return ""
					}
					return fmt.Sprint(k, n)
				})},
			{`SELECT sec_code, sec_code IN (1, 2, 3) AS lowsec, count(*) FROM trades GROUP BY sec_code`,
				want(perSec, func(k, n int64) string { return fmt.Sprint(k, boolOf(k == 1 || k == 2 || k == 3), n) })},
			{`SELECT sec_code, sec_code BETWEEN 1 AND 3 AS lowsec, count(*) FROM trades GROUP BY sec_code`,
				want(perSec, func(k, n int64) string { return fmt.Sprint(k, boolOf(k >= 1 && k <= 3), n) })},
		}
		for _, tc := range cases {
			res, err := c.Run(tc.sql)
			if err != nil {
				t.Fatalf("%v: %s: %v", mode, tc.sql, err)
			}
			var got []string
			for _, row := range res.Rows() {
				parts := make([]string, len(row))
				for i, v := range row {
					parts[i] = fmt.Sprint(v.AsInt())
				}
				got = append(got, strings.Join(parts, " "))
			}
			sort.Strings(got)
			if len(tc.want) == 0 || !slices.Equal(got, tc.want) {
				t.Fatalf("%v: %s: %d groups, want %d\ngot  %v\nwant %v", mode, tc.sql, len(got), len(tc.want), got, tc.want)
			}
		}
	}
}

func TestDerivedTableEndToEnd(t *testing.T) {
	c, ref := buildTestCluster(t, EP, 2)
	res, err := c.Run(`SELECT count(*) FROM
		(SELECT acct_id a, sum(trade_volume) v FROM trades GROUP BY acct_id) agg
		WHERE v > 1000`)
	if err != nil {
		t.Fatal(err)
	}
	sums := map[int64]float64{}
	for _, r := range ref.trades {
		sums[r.acct] += r.vol
	}
	want := int64(0)
	for _, v := range sums {
		if v > 1000 {
			want++
		}
	}
	if got := res.Rows()[0][0].I; got != want {
		t.Fatalf("derived-table count = %d, want %d", got, want)
	}
}

func TestMinMaxAggregates(t *testing.T) {
	c, ref := buildTestCluster(t, SP, 2)
	res, err := c.Run(`SELECT min(trade_volume), max(trade_volume), avg(trade_volume)
		FROM trades`)
	if err != nil {
		t.Fatal(err)
	}
	mn, mx, sum := ref.trades[0].vol, ref.trades[0].vol, 0.0
	for _, r := range ref.trades {
		if r.vol < mn {
			mn = r.vol
		}
		if r.vol > mx {
			mx = r.vol
		}
		sum += r.vol
	}
	row := res.Rows()[0]
	if row[0].F != mn || row[1].F != mx {
		t.Fatalf("min/max = %f/%f, want %f/%f", row[0].F, row[1].F, mn, mx)
	}
	wantAvg := sum / float64(len(ref.trades))
	d := row[2].F - wantAvg
	if d < -1e-6 || d > 1e-6 {
		t.Fatalf("avg = %f, want %f", row[2].F, wantAvg)
	}
}

func TestDistributedAvgMatchesScalar(t *testing.T) {
	// avg over a two-phase (repartitioned) aggregation must equal the
	// scalar aggregate: the planner's sum/count split has to recombine.
	c, _ := buildTestCluster(t, EP, 3)
	per, err := c.Run(`SELECT acct_id, avg(trade_volume) FROM trades GROUP BY acct_id`)
	if err != nil {
		t.Fatal(err)
	}
	if per.NumRows() == 0 {
		t.Fatal("no groups")
	}
	for _, row := range per.Rows() {
		if row[1].Null {
			t.Fatalf("NULL avg for acct %d", row[0].I)
		}
	}
}

// TestTCPClusterEndToEnd runs a full SQL query over a cluster whose
// exchanges cross real loopback TCP sockets — every repartitioned block
// passes through the wire codec — and checks the result against the
// in-process cluster's.
func TestTCPClusterEndToEnd(t *testing.T) {
	q := `SELECT sec_code, acct_id, sum(trade_volume)
	      FROM Trades T, Securities S
	      WHERE T.acct_id = S.acct_id
	      GROUP BY T.sec_code, S.acct_id`

	inproc, _ := buildTestCluster(t, EP, 3)
	want, err := inproc.Run(q)
	if err != nil {
		t.Fatal(err)
	}

	cat := catalog.New(3)
	trades := types.NewSchema(
		types.Col("acct_id", types.Int64),
		types.Col("sec_code", types.Int64),
		types.Col("trade_date", types.Date),
		types.Col("trade_volume", types.Float64),
	)
	cat.MustAdd(&catalog.Table{Name: "trades", Schema: trades, PartKey: []int{1}})
	secs := types.NewSchema(
		types.Col("acct_id", types.Int64),
		types.Col("sec_code", types.Int64),
		types.Col("entry_date", types.Date),
		types.Col("entry_volume", types.Float64),
	)
	cat.MustAdd(&catalog.Table{Name: "securities", Schema: secs, PartKey: []int{0}})
	c, err := NewClusterTCP(Config{Nodes: 3, CoresPerNode: 2, Mode: EP,
		BlockSize: 2048, SchedTick: 5e6}, cat)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Identical data (same seed/shape as buildTestCluster).
	rng := rand.New(rand.NewSource(42))
	day := types.MustParseDate("2010-10-30")
	tl, _ := c.NewTableLoader("trades")
	for i := 0; i < 8000; i++ {
		r := tl.Row()
		types.PutValue(r, trades, 0, types.IntVal(int64(rng.Intn(500))))
		types.PutValue(r, trades, 1, types.IntVal(int64(rng.Intn(50))))
		types.PutValue(r, trades, 2, types.DateVal(day-int64(rng.Intn(5))))
		types.PutValue(r, trades, 3, types.FloatVal(float64(rng.Intn(1000))))
		tl.Add()
	}
	tl.Close()
	sl, _ := c.NewTableLoader("securities")
	for i := 0; i < 2000; i++ {
		r := sl.Row()
		types.PutValue(r, secs, 0, types.IntVal(int64(rng.Intn(500))))
		types.PutValue(r, secs, 1, types.IntVal(int64(rng.Intn(50))))
		types.PutValue(r, secs, 2, types.DateVal(day-int64(rng.Intn(3))))
		types.PutValue(r, secs, 3, types.FloatVal(float64(rng.Intn(1000))))
		sl.Add()
	}
	sl.Close()

	got, err := c.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("TCP cluster rows = %d, in-proc = %d", got.NumRows(), want.NumRows())
	}
	if fingerprint(got) != fingerprint(want) {
		t.Fatal("TCP and in-process clusters disagree on the result set")
	}
	if got.Stats.NetworkBytes == 0 {
		t.Fatal("TCP egress bytes not accounted")
	}
}

// Error paths must surface cleanly, not hang the cluster.
func TestQueryErrorPaths(t *testing.T) {
	c, _ := buildTestCluster(t, EP, 2)
	for _, q := range []string{
		"SELECT * FROM missing_table",
		"SELECT nope FROM trades",
		"SELECT * FROM trades WHERE",
		"SELECT acct_id FROM trades GROUP BY",
		"SELECT * FROM trades, securities", // cross join unsupported
	} {
		if _, err := c.Run(q); err == nil {
			t.Errorf("query %q should fail", q)
		}
	}
	// The cluster must stay usable after failed queries.
	if _, err := c.Run("SELECT count(*) FROM trades"); err != nil {
		t.Fatalf("cluster wedged after error paths: %v", err)
	}
}

// TestTCPJoinProbeCannotBlockBuild: over sockets, the exchanges into a
// join's two inputs can share a connection. The probe inbox fills while
// the join still reads its build side; when a node's read loop blocked
// on a full inbox it held the build side's frames behind it, and the
// query never finished. The read loop now withholds the full inbox's
// credit instead, so the probe inbox stays bounded — by its own bound
// plus one send window per producer node — and nothing is retransmitted.
func TestTCPJoinProbeCannotBlockBuild(t *testing.T) {
	cat := catalog.New(2)
	a := types.NewSchema(types.Col("k", types.Int64), types.Col("v", types.Int64))
	b := types.NewSchema(types.Col("k", types.Int64), types.Col("w", types.Int64))
	// Neither input is partitioned on the join key: both are repartitioned.
	cat.MustAdd(&catalog.Table{Name: "a", Schema: a, PartKey: []int{1}})
	cat.MustAdd(&catalog.Table{Name: "b", Schema: b, PartKey: []int{1}})
	cfg := Config{Nodes: 2, CoresPerNode: 2, Mode: SP, BlockSize: 512, ExchangeBuffer: 1}
	c, err := NewClusterTCP(cfg, cat)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec := &inboxRecorder{Fabric: c.fabric}
	c.fabric = rec
	for _, tbl := range []struct {
		name string
		sch  *types.Schema
		rows int
	}{{"a", a, 20000}, {"b", b, 1000}} {
		tl, _ := c.NewTableLoader(tbl.name)
		for i := 0; i < tbl.rows; i++ {
			r := tl.Row()
			types.PutValue(r, tbl.sch, 0, types.IntVal(int64(i%1000)))
			types.PutValue(r, tbl.sch, 1, types.IntVal(int64(i%7)))
			tl.Add()
		}
		tl.Close()
	}
	const query = "SELECT count(*) FROM a, b WHERE a.k = b.k"
	p, _, err := c.CompileCached(query)
	if err != nil {
		t.Fatal(err)
	}
	probe := -1
	for _, s := range p.Segments {
		plan.Walk(s.Root, func(op plan.PhysOp) {
			if j, ok := op.(*plan.PHashJoin); ok {
				if m, ok := j.Probe.(*plan.PMerger); ok {
					probe = m.Exchange
				}
			}
		})
	}
	if probe < 0 {
		t.Fatal("the join does not probe an exchange")
	}
	// A full inbox withholds credit; each producer node may still have
	// one send window (16 frames) in flight toward it.
	limit := int64((cfg.ExchangeBuffer + 16*cfg.Nodes) * cfg.BlockSize)
	// Query ids vary the connection each exchange hashes to; twenty runs
	// put the two inputs on one connection many times over.
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		scope := telemetry.NewScope("probe-bound")
		res, err := c.Exec(ctx, Request{SQL: query, Scope: scope})
		cancel()
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if got := res.Rows()[0][0].I; got != 20000 {
			t.Fatalf("run %d: count %d, want 20000", i, got)
		}
		for inst, in := range rec.inboxes(probe) {
			if peak := in.PeakBufferedBytes(); peak > limit {
				t.Errorf("run %d: probe inbox %d held %d bytes at its peak, bound %d", i, inst, peak, limit)
			}
		}
		if r := scope.Counter(telemetry.CtrNetRetries).Load(); r != 0 {
			t.Errorf("run %d: net.retries = %d on a clean loopback join", i, r)
		}
	}
}

// inboxRecorder is a cluster's fabric that keeps the last exchange it
// declared under each plan exchange id, so a test can read its inboxes
// after the query.
type inboxRecorder struct {
	network.Fabric
	mu  sync.Mutex
	exs map[int]recordedExchange
}

type recordedExchange struct {
	ex        network.FabricExchange
	consumers int
}

func (r *inboxRecorder) NewExchange(query, id, producers int, consumerNodes []int, sch *types.Schema,
	bufBlocks int, tracker *block.Tracker, scope *telemetry.Scope) network.FabricExchange {
	ex := r.Fabric.NewExchange(query, id, producers, consumerNodes, sch, bufBlocks, tracker, scope)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.exs == nil {
		r.exs = make(map[int]recordedExchange)
	}
	r.exs[id] = recordedExchange{ex, len(consumerNodes)}
	return ex
}

// inboxes returns the consumer inboxes of the last exchange declared as id.
func (r *inboxRecorder) inboxes(id int) []*network.Inbox {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := r.exs[id]
	var out []*network.Inbox
	for i := 0; i < rec.consumers; i++ {
		out = append(out, rec.ex.Inbox(i))
	}
	return out
}

// Tiny exchange buffers must not deadlock any mode (backpressure
// propagates through senders, elastic buffers and workers).
func TestTinyExchangeBuffersNoDeadlock(t *testing.T) {
	for _, mode := range []Mode{EP, SP} {
		cat := catalog.New(2)
		sch := types.NewSchema(types.Col("k", types.Int64), types.Col("v", types.Int64))
		cat.MustAdd(&catalog.Table{Name: "t", Schema: sch, PartKey: []int{0}})
		c := NewCluster(Config{Nodes: 2, CoresPerNode: 2, Mode: mode,
			BlockSize: 512, ExchangeBuffer: 1, FixedParallelism: 2}, cat)
		tl, _ := c.NewTableLoader("t")
		for i := 0; i < 20000; i++ {
			r := tl.Row()
			types.PutValue(r, sch, 0, types.IntVal(int64(i)))
			types.PutValue(r, sch, 1, types.IntVal(int64(i%11)))
			tl.Add()
		}
		tl.Close()
		res, err := c.Run("SELECT v, count(*) FROM t GROUP BY v")
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.NumRows() != 11 {
			t.Fatalf("%v: groups = %d", mode, res.NumRows())
		}
	}
}
