// Command epbench regenerates the paper's evaluation — every figure and
// table of Section 5, on the virtual-time simulator plus Figure 9 on the
// real elastic iterators — and nothing else: anything measured on the
// real engine is a workload or metric of `bash benchmark/run.sh`. Run
// all experiments or a single one — -exp accepts any name from the
// registry below (fig8..fig13, table4..table7, ablation, multiquery, or
// all):
//
//	epbench -exp all
//	epbench -exp fig10
//	epbench -exp table7
//
// With -trace, every telemetry event the simulator emits during the run
// — scheduler decisions, worker expansions and shrinks, stage changes,
// utilization and parallelism samples — is written as JSON lines:
//
//	epbench -exp fig10 -trace fig10.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/telemetry"
)

type entry struct {
	name string
	run  func() (*bench.Report, error)
}

func experiments() []entry {
	return []entry{
		{"fig8", func() (*bench.Report, error) { return bench.Figure8(), nil }},
		{"fig9", func() (*bench.Report, error) { return bench.Figure9(), nil }},
		{"fig10", bench.Figure10},
		{"fig11", bench.Figure11},
		{"fig12", bench.Figure12},
		{"fig13", bench.Figure13},
		{"table4", bench.Table4},
		{"table5", bench.Table5},
		{"table6", bench.Table6},
		{"table7", bench.Table7},
		{"ablation", bench.AblationPartialAgg},
		{"multiquery", bench.MultiQuery},
	}
}

func expNames() []string {
	var names []string
	for _, e := range experiments() {
		names = append(names, e.name)
	}
	return append(names, "all")
}

func main() {
	// All work happens in run so its defers — in particular the -trace
	// sink flush — run on every exit path, error exits included (os.Exit
	// skips defers).
	os.Exit(run())
}

func run() int {
	exp := flag.String("exp", "all",
		"experiment: "+strings.Join(expNames(), "|"))
	trace := flag.String("trace", "",
		"write every telemetry event as JSON lines to this file")
	flag.Parse()

	want := strings.ToLower(*exp)
	valid := want == "all"
	for _, e := range experiments() {
		if want == e.name {
			valid = true
		}
	}
	if !valid {
		fmt.Fprintf(os.Stderr, "epbench: unknown experiment %q (valid: %s)\n",
			*exp, strings.Join(expNames(), ", "))
		return 2
	}

	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "epbench: -trace: %v\n", err)
			return 1
		}
		sink := telemetry.NewJSONLSink(f)
		telemetry.AttachDefault(sink)
		// Deferred, not called at the end: a failing experiment must
		// still leave a complete, flushed JSONL file behind — the trace
		// of a failed run is exactly the one worth reading.
		defer func() {
			if err := sink.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "epbench: -trace flush: %v\n", err)
			}
			f.Close()
		}()
	}

	for _, e := range experiments() {
		if want != "all" && want != e.name {
			continue
		}
		rep, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "epbench: %s: %v\n", e.name, err)
			return 1
		}
		fmt.Println(rep)
	}
	return 0
}
