// Package bench regenerates every figure and table of the paper's
// evaluation (Section 5), and nothing else: what is measured on the
// real engine is a workload or metric of the repository benchmark
// (`bash benchmark/run.sh`) or a test. Each experiment returns a Report
// whose rows mirror the series/columns the paper plots; cmd/epbench
// prints them and bench_test.go exposes each as a testing.B benchmark.
//
// Experiment-to-substrate mapping (DESIGN.md §4): Figure 9 measures the
// real elastic iterators; Figure 8 and the cluster-scale experiments
// (Figures 10-13, Tables 4-7) run on the virtual-time simulator at the
// paper's 10×24-core scale, with plans produced by the real SQL
// frontend and the scheduling performed by the real sched package.
package bench

import (
	"fmt"
	"strings"
)

// Report is one experiment's printable result.
type Report struct {
	Title string
	Notes []string
	Rows  []string
}

func (r *Report) addf(format string, args ...any) {
	r.Rows = append(r.Rows, fmt.Sprintf(format, args...))
}

func (r *Report) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the report.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s ===\n", r.Title)
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "# %s\n", n)
	}
	for _, row := range r.Rows {
		sb.WriteString(row)
		sb.WriteByte('\n')
	}
	return sb.String()
}
