package plan

import (
	"strings"
	"testing"
)

// TestExplainGolden pins the EXPLAIN rendering — the exact tree EXPLAIN
// ANALYZE annotates — for a plan exercising every interesting shape:
// pushed-down scan filter, repartitioned join, partial/final
// aggregation split, top-N pushdown and the master-side gather. The
// [vec] markers are part of the contract: they must appear exactly
// where the annotate pass proves full batch-kernel coverage.
func TestExplainGolden(t *testing.T) {
	p := compile(t, `SELECT t.acct_id a, sum(t.trade_volume)
		FROM trades t JOIN securities s ON t.acct_id = s.acct_id
		WHERE t.order_price > 100
		GROUP BY t.acct_id
		ORDER BY a LIMIT 10`)
	want := `segment 0 (all-nodes):
  project (2 exprs) [vec]
    scan trades filter (t.order_price > 100) [vec]
  -> repartition via exchange 0
segment 1 (all-nodes):
  hash join (word key) [vec]
    build:
      merger (exchange 0)
    probe:
      project (1 exprs) [vec]
        scan securities
  -> repartition via exchange 1
segment 2 (all-nodes):
  top-10
    project (2 exprs) [vec]
      hash agg (1 keys, 1 aggs, shared, word key) [vec]
        merger (exchange 1)
  -> gather via exchange 2
segment 3 (master):
  top-10
    merger (exchange 2)
  -> result
`
	if got := p.String(); got != want {
		t.Errorf("EXPLAIN rendering drifted.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRenderAnnotations checks the ANALYZE decoration hooks: each
// callback's text lands on its own line, and nil callbacks leave the
// plain rendering untouched.
func TestRenderAnnotations(t *testing.T) {
	p := compile(t, "SELECT acct_id, sum(trade_volume) FROM trades GROUP BY acct_id")
	out := p.Render(Annotations{
		Op:      func(op PhysOp) string { return "  <op:" + OpLabel(op) + ">" },
		Segment: func(s *Segment) string { return "  <seg>" },
		Out:     func(s *Segment) string { return "  <out>" },
	})
	for _, want := range []string{"<seg>", "<out>", "<op:hash agg>", "<op:merger ex"} {
		if !strings.Contains(out, want) {
			t.Errorf("annotated rendering missing %q:\n%s", want, out)
		}
	}
	segs := strings.Count(out, "<seg>")
	if want := len(p.Segments); segs != want {
		t.Errorf("segment annotations = %d, want %d", segs, want)
	}
	if p.Render(Annotations{}) != p.String() {
		t.Error("empty Annotations changed the rendering")
	}
}

// TestWalkAndChildren checks the traversal helpers the engine's op
// indexing and the analyzer's self-time derivation rely on.
func TestWalkAndChildren(t *testing.T) {
	p := compile(t, `SELECT t.acct_id a, sum(t.trade_volume)
		FROM trades t JOIN securities s ON t.acct_id = s.acct_id
		GROUP BY t.acct_id`)
	total := 0
	for _, s := range p.Segments {
		Walk(s.Root, func(op PhysOp) {
			total++
			for _, c := range Children(op) {
				if c == nil {
					t.Fatalf("%s has a nil child", OpLabel(op))
				}
			}
			if OpLabel(op) == "" {
				t.Errorf("empty label for %T", op)
			}
		})
	}
	if total < 6 {
		t.Errorf("walked %d ops, expected a multi-segment join plan to have more", total)
	}
}
