package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted values by linear
// interpolation between the two nearest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// mean is the arithmetic mean; 0 if there are no values.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// iqrShare is the distance between the first and third quartile as a
// share of the median: the spread figure the benchmark's bounds are
// judged against. It uses the same quartile rule as Python's
// statistics.quantiles(v, n=4) (exclusive method), so numbers printed
// here match the acceptance check's.
func iqrShare(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := sortedCopy(v)
	q := func(p float64) float64 { // exclusive method: position p*(n+1), 1-based
		pos := p * float64(n+1)
		lo := int(math.Floor(pos))
		if lo < 1 {
			lo = 1
		}
		if lo > n-1 {
			lo = n - 1
		}
		return s[lo-1] + (s[lo]-s[lo-1])*(pos-float64(lo))
	}
	m := quantile(s, 0.5)
	if m == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / math.Abs(m)
}

// geomean is the geometric mean of positive values; 0 if there are none.
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

// sortedNs returns latency samples (nanoseconds) sorted, as quantile
// takes them.
func sortedNs(samples []uint32) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s)
	}
	sort.Float64s(out)
	return out
}
