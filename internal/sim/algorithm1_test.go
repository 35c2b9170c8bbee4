package sim

import (
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/sse"
	"repro/internal/telemetry"
)

// TestAlgorithm1MovesCoresOnSSEQ9 pins that Algorithm 1 is a rule that
// moves cores in the Section 5.3 figures, not only on fake segments:
// SSE-Q9 at the paper's scale on the paper's cluster, in Figure 13's
// setting with initial parallelism 1 (Figure 10's run) and in Figure
// 11's (date-sorted Trades: the scan's filter passes nothing, then
// everything), records at least one "algorithm1" decision each. In
// Figure 11 some round also hands out a free core on the same node:
// Algorithm 1 runs every round, not only in rounds that start with no
// free core.
func TestAlgorithm1MovesCoresOnSSEQ9(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sorted bool // Figure 11; also wants a round with both moves
	}{
		{"fig13-initial-p1", false},
		{"fig11-sorted-date", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cat := catalog.New(10)
			sse.RegisterTables(cat, 840_000_000)
			p, err := plan.Compile(sse.Queries["SSE-Q9"], cat)
			if err != nil {
				t.Fatal(err)
			}
			g, err := Compile(p, cat, 10)
			if err != nil {
				t.Fatal(err)
			}
			if tc.sorted {
				scan := &g.Groups[0].Stages[len(g.Groups[0].Stages)-1]
				scan.SelProfile = func(prog float64) float64 {
					if prog < 59.0/60 {
						return 0
					}
					return 1
				}
			}
			cluster := Cluster{Nodes: 10, Cores: 12, HTCores: 24, NetBps: 125e6,
				MemBps: 8e9, Quantum: 5 * time.Millisecond}
			s, err := New(cluster, g, &EPPolicy{Tick: 100 * time.Millisecond, InitialP: 1})
			if err != nil {
				t.Fatal(err)
			}
			mem := telemetry.NewMemSink(telemetry.KindSchedDecision)
			s.Scope().Attach(mem)
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			type round struct {
				node int
				at   time.Duration
			}
			reasons := map[string]int{}
			freeCore := map[round]bool{} // rounds that handed out a free core
			shared := 0
			for _, ev := range mem.Events() {
				d := ev.Rec.(telemetry.SchedDecision)
				reasons[d.Reason]++
				r := round{d.Node, ev.At}
				switch d.Reason {
				case "free core":
					freeCore[r] = true
				case "algorithm1":
					if freeCore[r] {
						shared++
					}
				}
			}
			if reasons["algorithm1"] == 0 {
				t.Fatalf("no algorithm1 decision; decisions by reason: %v", reasons)
			}
			if tc.sorted && shared == 0 {
				t.Fatalf("no round both handed out a free core and made an algorithm1 move; decisions by reason: %v", reasons)
			}
		})
	}
}
