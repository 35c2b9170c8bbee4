// Command benchmark is the repository's benchmark: one process that
// hosts the engine, serves it with protocol.Serve on a loopback socket,
// drives it with internal/client over that socket, checks every reply,
// and prints end-to-end metrics (tracing off) or per-layer metrics
// (traced run) for one of four workloads. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// record is one run as -record appends it and -compare reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or \"all\": "+fmt.Sprint(workloadNames()))
	seed := fs.Int64("seed", 1, "statement generator seed (the data seed is fixed)")
	seconds := fs.Float64("seconds", runSeconds, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	smoke := fs.Bool("smoke", false, "small data and one set-up: checks the plumbing, not the numbers")
	maxWall := fs.Duration("max-wall", 170*time.Second, "exit with code 2 if one run is still going after this long")
	outDir := fs.String("out", "benchmark/out", "directory for trace-<workload>.json")
	recordTo := fs.String("record", "", "append each run's result to this file, one JSON object per line")
	spec := fs.Bool("spec", false, "print BENCHMARK.json and exit")
	compare := fs.Bool("compare", false, "compare two -record files: benchmark -compare a.jsonl b.jsonl")
	specPath := fs.String("bounds", "BENCHMARK.json", "file -compare takes the bounds from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *spec:
		if err := writeSpec(stdout); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(*specPath, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	var run []*workload
	if *name == "all" {
		run = workloads
	} else if w := workloadByName(*name); w != nil {
		run = []*workload{w}
	} else {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q; have %v and \"all\"\n", *name, workloadNames())
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}

	// SIGINT/SIGTERM cancel the run; the drive loops stop at the next
	// statement and every deferred Close below still runs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	code := 0
	netBytes := map[string]float64{}
	for _, w := range run {
		modes := []bool{*trace == 1}
		if *name == "all" {
			modes = []bool{false, true}
		}
		for _, traced := range modes {
			cfg := &runConfig{w: w, seed: *seed, seconds: *seconds, trace: traced, smoke: *smoke, outDir: *outDir, report: stdout}
			res, err := runGuarded(ctx, cfg, *maxWall, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
				if errors.Is(err, context.Canceled) {
					return 130
				}
				return 1
			}
			if !res.Correct {
				code = 1
			}
			if traced {
				netBytes[w.name] = res.Metrics["network.bytes_op"].Value
			}
			if *recordTo != "" {
				rec := record{Workload: w.name, Seed: *seed, result: *res}
				if traced {
					rec.Trace = 1
				}
				if err := appendRecord(*recordTo, rec); err != nil {
					fmt.Fprintln(stderr, "benchmark:", err)
					return 1
				}
			}
			if *name != "all" {
				// The contract's result: the last line of standard output.
				line, _ := json.Marshal(res)
				fmt.Fprintf(stdout, "%s\n", line)
			}
		}
	}
	if *name == "all" && !*smoke {
		scan, join := netBytes["scan_agg_inproc"], netBytes["join_repartition_tcp"]
		if scan >= 0.05*join {
			fmt.Fprintf(stdout, "PREMISE BROKEN: network.bytes_op on scan_agg_inproc (%.0f) is not below 5%% of join_repartition_tcp (%.0f)\n", scan, join)
			code = 1
		} else {
			fmt.Fprintf(stdout, "premise holds: network.bytes_op scan_agg_inproc %.0f < 5%% of join_repartition_tcp %.0f\n", scan, join)
		}
	}
	return code
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runGuarded runs one workload under the wall-clock watchdog: a run
// that hangs must not outlive the time the caller allows a run, and a
// process that cannot unwind must still end.
func runGuarded(ctx context.Context, cfg *runConfig, maxWall time.Duration, stderr io.Writer) (*result, error) {
	watchdog := time.AfterFunc(maxWall, func() {
		fmt.Fprintf(stderr, "benchmark: %s still running after %v, giving up\n", cfg.w.name, maxWall)
		os.Exit(2)
	})
	defer watchdog.Stop()
	if cfg.trace {
		return runTraced(ctx, cfg)
	}
	return runEndToEnd(ctx, cfg)
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
