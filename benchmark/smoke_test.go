package main

import (
	"bytes"
	"context"
	"encoding/json"
	"go/parser"
	"go/token"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// baseline counts the goroutines before a run. The runtime's signal
// loop starts with the first signal.Notify and never exits; start it
// here so it is not mistaken for a leak of the run.
func baseline() int {
	_, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	stop()
	time.Sleep(10 * time.Millisecond)
	return runtime.NumGoroutine()
}

// settle waits for the goroutine count to come back to base: handlers
// and pumps exit asynchronously after Close returns.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the run:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Every workload's set-up, a short drive, and close leave nothing
// behind: no goroutine, no open exchange, no listener.
func TestCloseLeavesNothingBehind(t *testing.T) {
	base := baseline()
	for _, w := range workloads {
		e, err := setup(w, 1, tpchSFSmoke)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		addr := e.psrv.Addr()
		recs, _ := newRecorders(w, 1<<16)
		if _, err := e.driveRound(context.Background(), e.streams(1), recs, 300*time.Millisecond, nil); err != nil {
			e.close()
			t.Fatalf("%s: %v", w.name, err)
		}
		if attempted, failed := counts(recs); attempted == 0 || failed != 0 {
			t.Errorf("%s: %d of %d statements failed", w.name, failed, attempted)
		}
		if n := e.cluster.OpenExchanges(); n != 0 {
			t.Errorf("%s: %d exchanges open with no statement in flight", w.name, n)
		}
		e.close()
		e.close() // twice is harmless
		if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			c.Close()
			t.Errorf("%s: %s still accepts connections after close", w.name, addr)
		}
		settle(t, base)
	}
}

// The whole program in smoke mode: all four workloads, end to end and
// traced, exit 0, four trace files, goroutines back to baseline.
func TestSmokeAllWorkloads(t *testing.T) {
	base := baseline()
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"--workload", "all", "-smoke", "--seconds", "0.6", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	for _, w := range workloads {
		raw, err := os.ReadFile(filepath.Join(out, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var trace struct{ TraceEvents []map[string]any }
		if err := json.Unmarshal(raw, &trace); err != nil || len(trace.TraceEvents) == 0 {
			t.Errorf("%s: trace file has %d events, err %v", w.name, len(trace.TraceEvents), err)
		}
	}
	settle(t, base)
	assertNoChildren(t)
}

// A single run ends its standard output with the contract's result
// line: exactly the four keys, and exactly the metrics of its mode.
func TestResultLine(t *testing.T) {
	for trace, defs := range [][]metricDef{endToEnd, perLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "adhoc_text", "--seed", "4", "--seconds", "1", "--trace", []string{"0", "1"}[trace], "-smoke", "-out", t.TempDir()}
		if code := realMain(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %d: exit %d\n%s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %d: last line is not JSON: %v", trace, err)
		}
		if got := keysOf(res); !reflect.DeepEqual(got, []string{"attempted", "correct", "failed", "metrics"}) {
			t.Errorf("trace %d: result keys %v", trace, got)
		}
		var metrics map[string]value
		if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, d := range defs {
			want = append(want, d.Name)
			if metrics[d.Name].Unit != d.Unit {
				t.Errorf("trace %d: %s has unit %q, want %q", trace, d.Name, metrics[d.Name].Unit, d.Unit)
			}
		}
		sort.Strings(want)
		if got := keysOf(metrics); !reflect.DeepEqual(got, want) {
			t.Errorf("trace %d: metrics %v, want %v", trace, got, want)
		}
	}
}

func keysOf[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestUnknownWorkloadPrintsNoResult(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}

// The benchmark is one process: nothing in it can start another.
func TestStartsNoProcess(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if p := strings.Trim(imp.Path.Value, `"`); p == "os/exec" || strings.Contains(p, "clustertest") {
				t.Errorf("%s imports %s", name, p)
			}
		}
	}
	assertNoChildren(t)
}

// assertNoChildren reads the kernel's list of this process's children.
func assertNoChildren(t *testing.T) {
	t.Helper()
	lists, _ := filepath.Glob("/proc/self/task/*/children")
	for _, path := range lists {
		if raw, err := os.ReadFile(path); err == nil && len(bytes.TrimSpace(raw)) > 0 {
			t.Errorf("child processes %s listed in %s", bytes.TrimSpace(raw), path)
		}
	}
}

// BENCHMARK.json is generated by -spec; the committed file must be what
// the program's own tables say.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var buf bytes.Buffer
	if err := writeSpec(&buf); err != nil {
		t.Fatal(err)
	}
	var committed, generated any
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &generated); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(committed, generated) {
		t.Fatal("BENCHMARK.json differs from `benchmark -spec`; regenerate it")
	}
	for _, w := range workloads {
		if why := w.why; why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(why))
		}
	}
}
