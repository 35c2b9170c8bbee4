package bench

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// simMetricsStub feeds convergenceDelay a synthetic ramp.
var simMetricsStub = sim.Metrics{Trace: []sim.TraceSample{
	{At: 100 * time.Millisecond, Parallelism: map[string]int{"S0": 1}},
	{At: 200 * time.Millisecond, Parallelism: map[string]int{"S0": 6}},
	{At: 300 * time.Millisecond, Parallelism: map[string]int{"S0": 12}},
	{At: 400 * time.Millisecond, Parallelism: map[string]int{"S0": 12}},
}}

func TestFigure8ReportShapes(t *testing.T) {
	r := Figure8()
	if len(r.Rows) != 9 { // header + 8 operator cases
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// The compute-bound case must scale far better than the
	// memory-bound one at p=24 (paper Figure 8a).
	var likeRow, dateRow string
	for _, row := range r.Rows {
		if strings.Contains(row, "S-Q1") {
			likeRow = row
		}
		if strings.Contains(row, "S-Q2") {
			dateRow = row
		}
	}
	if likeRow == "" || dateRow == "" {
		t.Fatal("missing operator rows")
	}
	lastField := func(s string) float64 {
		f := strings.Fields(s)
		var v float64
		if _, err := fmt.Sscan(f[len(f)-1], &v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	if lastField(likeRow) <= lastField(dateRow) {
		t.Fatalf("compute-bound (%.1f) should out-scale memory-bound (%.1f)",
			lastField(likeRow), lastField(dateRow))
	}
}

// TestFigure10Dynamics pins Figure 10's hand-off: while S2 waits at one
// worker, S1 takes at least 75 % of the node's cores; later S2 takes at
// least 75 % as the hash build becomes the bottleneck.
func TestFigure10Dynamics(t *testing.T) {
	r, err := Figure10()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 10 {
		t.Fatalf("trace too short: %d rows", len(r.Rows))
	}
	const cores = 24 // paperCluster's logical cores per node
	var s1Alone, s2Peak float64
	for _, row := range r.Rows {
		n := rowNums(row)
		if len(n) != 4 { // t, S1, S2, S3
			continue
		}
		s1, s2 := n[1], n[2]
		if s2 == 1 && s2Peak <= 1 {
			s1Alone = max(s1Alone, s1)
		}
		s2Peak = max(s2Peak, s2)
	}
	if s1Alone < 0.75*cores {
		t.Errorf("S1 peaked at %.0f of %d cores while S2 was at 1, want >= 75%%:\n%s", s1Alone, cores, r)
	}
	if s2Peak < 0.75*cores {
		t.Errorf("S2 reached only %.0f of %d cores, want >= 75%%:\n%s", s2Peak, cores, r)
	}
}

// TestFigure12RecoversInGaps pins Figure 12's recovery: inside an
// interference-free gap S2 takes at least 75 % of a node's cores again,
// and the query answers faster than the 10.4 s it took while the
// freshness window θ outlasted a gap (2 s, or 20 of the figure's 100 ms
// rounds), when rates measured under the interferer still vetoed
// expansion all through the quiet phase.
func TestFigure12RecoversInGaps(t *testing.T) {
	r, err := Figure12()
	if err != nil {
		t.Fatal(err)
	}
	const cores = 24 // paperCluster's logical cores per node
	var s2Gap float64
	for _, row := range r.Rows {
		n := rowNums(row)
		if len(n) != 4 { // t, S1, S2, S3
			continue
		}
		// A row's time is rounded to 0.1 s: it is in a gap only if the
		// whole rounding interval is.
		at := time.Duration(n[0] * float64(time.Second))
		if figure12Interference(at-50*time.Millisecond) == 0 &&
			figure12Interference(at+50*time.Millisecond) == 0 {
			s2Gap = max(s2Gap, n[2])
		}
	}
	if s2Gap < 0.75*cores {
		t.Errorf("S2 reached only %.0f of %d cores inside an interference-free gap, want >= 75%%:\n%s", s2Gap, cores, r)
	}
	resp := -1.0
	for _, note := range r.Notes {
		if _, after, ok := strings.Cut(note, "response time "); ok {
			resp, err = strconv.ParseFloat(strings.TrimSuffix(after, "s"), 64)
			if err != nil {
				t.Fatalf("note %q: %v", note, err)
			}
		}
	}
	if resp <= 0 || resp >= 10.4 {
		t.Errorf("response %.1fs, want below 10.4s:\n%s", resp, r)
	}
}

func TestConvergenceDelayHelper(t *testing.T) {
	if d := convergenceDelay(&simMetricsStub); d <= 0 {
		t.Fatalf("convergence delay = %v", d)
	}
}

func TestTable4ShowsMaterializationBlowup(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple cluster simulations")
	}
	r, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	// At least one SSE query must show ME well above EP.
	blowup := false
	for _, row := range r.Rows {
		n := rowNums(row)
		if len(n) != 3 { // EP, SP, ME
			continue
		}
		if ep, me := n[0], n[2]; me > 2*ep {
			blowup = true
		}
	}
	if !blowup {
		t.Fatalf("no ME memory blow-up visible:\n%s", r)
	}
}

// rowNums returns the fields of a report row that are numbers, in
// order; labels, column separators and header rows contribute nothing.
func rowNums(row string) []float64 {
	var out []float64
	for _, f := range strings.Fields(row) {
		if v, err := strconv.ParseFloat(f, 64); err == nil {
			out = append(out, v)
		}
	}
	return out
}

// TestFigure11Flip pins EXPERIMENTS.md's "adaptive flip": while the
// sorted scan passes nothing, S2 is held at the floor and S1 absorbs the
// node's cores; once the selectivity jumps, S2 expands to take them.
func TestFigure11Flip(t *testing.T) {
	r, err := Figure11()
	if err != nil {
		t.Fatal(err)
	}
	const cores = 24 // paperCluster's logical cores per node
	var s1Starved, s2Fed, s1Last float64
	fed := false
	for _, row := range r.Rows {
		n := rowNums(row)
		if len(n) != 4 { // t, S1, S2, S3
			continue
		}
		s1, s2 := n[1], n[2]
		if s2 > 1 {
			fed = true
		}
		if !fed {
			s1Starved = max(s1Starved, s1)
		} else {
			s2Fed = max(s2Fed, s2)
		}
		s1Last = s1
	}
	if !fed {
		t.Fatalf("S2 never left parallelism 1:\n%s", r)
	}
	if s1Starved < 0.75*cores {
		t.Errorf("S1 peaked at %.0f of %d cores while S2 was starved, want >= 75%%:\n%s", s1Starved, cores, r)
	}
	if s2Fed < 0.75*cores {
		t.Errorf("S2 reached only %.0f of %d cores after the selectivity jump, want >= 75%%:\n%s", s2Fed, cores, r)
	}
	if s1Last > s1Starved {
		t.Errorf("S1 ended at %.0f, above its starved-phase peak %.0f: it should cede cores to S2:\n%s", s1Last, s1Starved, r)
	}
}

// TestFigure13Flatness pins the self-tuning property: response time
// within 1.6x across initial parallelism 1, 4, 8 and 12 (EXPERIMENTS.md
// records 1.4x), and a convergence delay that never grows as the initial
// guess improves.
func TestFigure13Flatness(t *testing.T) {
	r, err := Figure13()
	if err != nil {
		t.Fatal(err)
	}
	var resp, conv []float64
	for _, row := range r.Rows {
		n := rowNums(row)
		if len(n) != 3 { // init p, response, convergence
			continue
		}
		switch n[0] {
		case 1, 4, 8, 12:
			resp = append(resp, n[1])
			conv = append(conv, n[2])
		}
	}
	if len(resp) != 4 {
		t.Fatalf("found %d of the 4 pinned rows:\n%s", len(resp), r)
	}
	lo, hi := resp[0], resp[0]
	for i, v := range resp {
		lo, hi = min(lo, v), max(hi, v)
		if i > 0 && conv[i] > conv[i-1] {
			t.Errorf("convergence delay grew from %.1fs to %.1fs with a better initial guess:\n%s", conv[i-1], conv[i], r)
		}
	}
	if lo <= 0 || hi > 1.6*lo {
		t.Errorf("response spans %.1fs..%.1fs, want within 1.6x:\n%s", lo, hi, r)
	}
}

// TestTable6Ordering pins "EP posts the best response on all three
// representatives": EP no slower than IS and MDP on Q1, Q9 and Q14, at
// the report's 0.1 s resolution.
func TestTable6Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("nine cluster simulations")
	}
	r, err := Table6()
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, row := range r.Rows {
		n := rowNums(row)
		if len(n) != 6 { // IS, MDP, EP high-utilization %; IS, MDP, EP seconds
			continue
		}
		seen++
		is, mdp, ep := n[3], n[4], n[5]
		if ep <= 0 || ep > is || ep > mdp {
			t.Errorf("EP %.1fs vs IS %.1fs, MDP %.1fs: %s", ep, is, mdp, row)
		}
	}
	if seen != 3 {
		t.Fatalf("found %d of the 3 query rows:\n%s", seen, r)
	}
}

func TestRunModeUnknown(t *testing.T) {
	if _, err := runMode("SELECT 1", "tpch", "nope"); err == nil {
		t.Fatal("unknown mode should error")
	}
}

func TestMeasureExpandIsFast(t *testing.T) {
	d := measureExpand(2)
	if d <= 0 || d > 500*time.Millisecond {
		t.Fatalf("expansion delay = %v", d)
	}
}
