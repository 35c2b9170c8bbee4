package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// loadRecords reads a -record file and returns, per workload and
// end-to-end metric, the values of its untraced runs.
func loadRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], v.Value)
		}
	}
	return out, sc.Err()
}

// verdict judges one end-to-end metric on one workload: b against a,
// by the metric's bound. A spread wider than the bound on either side
// cannot resolve a change of that size, so it is reported as such and
// not as unchanged.
func verdict(d metricDef, a, b []float64) (string, float64) {
	ma, mb := median(a), median(b)
	if len(a) == 0 || len(b) == 0 || ma == 0 {
		return "missing", 0
	}
	change := (mb - ma) / ma
	worse := change
	if d.Better == "higher" {
		worse = -change
	}
	switch {
	case iqrShare(a) > d.Bound || iqrShare(b) > d.Bound:
		return "unresolved", change
	case worse > d.Bound:
		return "worse", change
	case worse < -d.Bound:
		return "better", change
	}
	return "same", change
}

// compareFiles prints, one row per workload, whether each end-to-end
// metric of result set b is better, worse, the same or unresolved
// against set a under the bounds in BENCHMARK.json. It returns 1 if
// any pair is worse.
func compareFiles(specPath, pathA, pathB string, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", specPath, err)
		return 2
	}
	var sets [2]map[string]map[string][]float64
	for i, path := range []string{pathA, pathB} {
		if sets[i], err = loadRecords(path); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	return printComparison(stdout, spec.Workloads, spec.EndToEnd, sets[0], sets[1])
}

func printComparison(out io.Writer, wls []struct{ Name string }, defs []metricDef, a, b map[string]map[string][]float64) int {
	tally := map[string]int{}
	for _, w := range wls {
		fmt.Fprintf(out, "%-22s", w.Name)
		for _, d := range defs {
			va, vb := a[w.Name][d.Name], b[w.Name][d.Name]
			v, change := verdict(d, va, vb)
			tally[v]++
			fmt.Fprintf(out, "  %s %s(%+.1f%%, spread %.1f%%/%.1f%%, n=%d/%d)", d.Name, v,
				100*change, 100*iqrShare(va), 100*iqrShare(vb), len(va), len(vb))
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "same %d, better %d, worse %d, unresolved %d, missing %d\n",
		tally["same"], tally["better"], tally["worse"], tally["unresolved"], tally["missing"])
	if tally["worse"] > 0 {
		return 1
	}
	return 0
}
