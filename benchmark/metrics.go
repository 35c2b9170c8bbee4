package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef names one metric. BENCHMARK.json is generated from these
// tables (-spec), so the names and units the program prints and the
// ones the contract lists cannot drift apart.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, the same on every
// workload. Bound is the share of the parent's median by which the
// metric may worsen before a change counts as a regression. The three
// timing bounds are the widest the contract allows, not the 0.10, 0.10
// and 0.15 the issue asked for: ten runs of one commit spread by 4-16%
// on the 2-vCPU guests this runs on (README, "Baseline"), the contract
// refuses a benchmark whose spread exceeds its bound and asks for a
// bound of three times the spread, and one run may not measure longer.
// heap_live_mb repeats to 2%.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_tail_us", "us", "lower", 0.25},
	{"heap_live_mb", "MB", "lower", 0.15},
}

// perLayer are the single-layer metrics of the traced run; the layer is
// the package name before the dot.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{Name: "sql.parse_ns_op", Unit: "ns", Better: "lower"},
		{Name: "sql.normalize_ns_op", Unit: "ns", Better: "lower"},
		{Name: "sql.parse_allocs_op", Unit: "count", Better: "lower"},
		{Name: "plan.compile_ns_op", Unit: "ns", Better: "lower"},
		{Name: "plan.cache_hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "plan.bind_ns_op", Unit: "ns", Better: "lower"},
		{Name: "plan.bind_allocs_op", Unit: "count", Better: "lower"},
		{Name: "session.execute_ns_op", Unit: "ns", Better: "lower"},
		{Name: "session.execute_allocs_op", Unit: "count", Better: "lower"},
		{Name: "server.overhead_ns_op", Unit: "ns", Better: "lower"},
		{Name: "server.queued_peak", Unit: "count", Better: "lower"},
		{Name: "protocol.socket_us_op", Unit: "us", Better: "lower"},
		{Name: "protocol.encode_ns_row", Unit: "ns", Better: "lower"},
		{Name: "protocol.bytes_op", Unit: "bytes", Better: "lower"},
		{Name: "client.first_row_us", Unit: "us", Better: "lower"},
		{Name: "client.latency_p999_us", Unit: "us", Better: "lower"},
		{Name: "engine.run_ns_op", Unit: "ns", Better: "lower"},
		{Name: "engine.setup_ns_op", Unit: "ns", Better: "lower"},
		{Name: "engine.fastpath_ratio", Unit: "ratio", Better: "higher"},
		{Name: "expr.predicate_ns_row", Unit: "ns", Better: "lower"},
		{Name: "expr.keyhash_ns_row", Unit: "ns", Better: "lower"},
		{Name: "iterator.op_self_ms.filter", Unit: "ms", Better: "lower"},
		{Name: "iterator.op_self_ms.hashagg", Unit: "ms", Better: "lower"},
		{Name: "iterator.op_self_ms.hashjoin", Unit: "ms", Better: "lower"},
		{Name: "iterator.op_self_ms.exchange", Unit: "ms", Better: "lower"},
		{Name: "iterator.rows_s", Unit: "1/s", Better: "higher"},
		{Name: "elastic.mean_parallelism", Unit: "count", Better: "higher"},
		{Name: "elastic.expands_op", Unit: "count", Better: "lower"},
		{Name: "sched.overhead_ms_op", Unit: "ms", Better: "lower"},
		{Name: "sched.decisions_op", Unit: "count", Better: "lower"},
		{Name: "block.encode_mb_s", Unit: "MB/s", Better: "higher"},
		{Name: "block.decode_mb_s", Unit: "MB/s", Better: "higher"},
		{Name: "block.arena_get_ns", Unit: "ns", Better: "lower"},
		{Name: "network.bytes_op", Unit: "bytes", Better: "lower"},
		{Name: "network.frames_per_batch", Unit: "count", Better: "higher"},
		{Name: "network.stall_ms_op", Unit: "ms", Better: "lower"},
		{Name: "network.retries", Unit: "count", Better: "lower"},
		{Name: "network.repartition_mb_s", Unit: "MB/s", Better: "higher"},
		{Name: "storage.load_rows_s", Unit: "1/s", Better: "higher"},
		{Name: "runtime.allocs_op", Unit: "count", Better: "lower"},
		{Name: "runtime.gc_pause_ms", Unit: "ms/s", Better: "lower"},
		{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower"},
		{Name: "telemetry.trace_overhead_ratio", Unit: "ratio", Better: "higher"},
	}
	for _, id := range analyticIDs {
		defs = append(defs, metricDef{Name: "client.stmt_p50_ms." + id, Unit: "ms", Better: "lower"})
	}
	return defs
}()

// runSeconds is the measured window of one run, the same for every
// workload: the longest that lets the contract's 92 runs, each with
// three set-ups, and two builds end in 57 minutes with a tenth to spare.
const runSeconds = 24

// writeSpec prints BENCHMARK.json.
func writeSpec(out io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	spec := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"` // no bound: omitted when zero
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.name, w.why})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(spec)
}

// value is one reported metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// newResult keeps exactly the metrics defs lists, with their units.
func newResult(defs []metricDef, m map[string]float64) (*result, error) {
	r := &result{Metrics: make(map[string]value, len(defs))}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		r.Metrics[d.Name] = value{v, d.Unit}
	}
	return r, nil
}
