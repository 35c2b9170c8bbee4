package main

import (
	"math"
	"testing"
)

// iqrShare must agree with Python's statistics.quantiles(v, n=4), which
// the acceptance check uses: for 1..10 the quartiles are 2.75 and 8.25.
func TestIQRShareMatchesPython(t *testing.T) {
	v := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	want := (8.25 - 2.75) / 5.5
	if got := iqrShare(v); math.Abs(got-want) > 1e-12 {
		t.Fatalf("iqrShare = %v, want %v", got, want)
	}
	if got := iqrShare([]float64{3}); got != 0 {
		t.Fatalf("iqrShare of one value = %v, want 0", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "latency_p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_ops_s", Better: "higher", Bound: 0.10}
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01, m, m} }
	noisy := []float64{50, 100, 150, 100, 70}
	cases := []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady(100), steady(105), "same"},
		{lower, steady(100), steady(120), "worse"},
		{lower, steady(100), steady(80), "better"},
		{higher, steady(100), steady(80), "worse"},
		{higher, steady(100), steady(120), "better"},
		{lower, steady(100), noisy, "unresolved"},
		{lower, steady(100), nil, "missing"},
	}
	for _, c := range cases {
		if got, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, median(c.a), median(c.b), got, c.want)
		}
	}
}

func TestCheckToleratesSummationOrder(t *testing.T) {
	want := check{rows: 3, isum: 42, fsum: 1e9}
	if !(check{rows: 3, isum: 42, fsum: 1e9 * (1 + 1e-12)}).matches(want) {
		t.Error("a float sum off by summation-order noise must match")
	}
	for _, wrong := range []check{{2, 42, 1e9}, {3, 41, 1e9}, {3, 42, 1e9 + 10}} {
		if wrong.matches(want) {
			t.Errorf("%+v must not match %+v", wrong, want)
		}
	}
}
