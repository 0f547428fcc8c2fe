package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // unsorted on purpose
	}
	cases := []struct {
		q    float64
		want float64
	}{{0.5, 500}, {0.99, 990}, {1, 1000}, {0.001, 1}}
	for _, c := range cases {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..1000, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 1000 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
}

// The sample-count rule: a p99 is reported from at least 1000 samples,
// so at least ten samples lie beyond it.
func TestSampleCountRule(t *testing.T) {
	if got := minSamples(0.99, 10); got != 1000 {
		t.Errorf("minSamples(0.99, 10) = %d, want 1000", got)
	}
	if got := minSamples(0.5, 10); got != 20 {
		t.Errorf("minSamples(0.5, 10) = %d, want 20", got)
	}
	if minLatencySamples != minSamples(0.99, 10) {
		t.Errorf("minLatencySamples = %d, want %d", minLatencySamples, minSamples(0.99, 10))
	}
	for _, c := range []struct{ n, want int }{{1000, 10}, {999, 9}, {1100, 11}, {100, 1}} {
		if got := beyond(c.n, 0.99); got != c.want {
			t.Errorf("beyond(%d, 0.99) = %d, want %d", c.n, got, c.want)
		}
	}
}

// quartiles must match Python's statistics.quantiles(xs, n=4), which
// the acceptance check of the benchmark's spread uses.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{1, 2}, 0.75, 2.25},
		// statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
		{[]float64{5, 1, 3}, 1, 5},
	}
	for _, c := range cases {
		q1, q3, ok := quartiles(c.xs)
		if !ok || math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, %v; want %g, %g", c.xs, q1, q3, ok, c.q1, c.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample reported ok")
	}
	sp, ok := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !ok || math.Abs(sp-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread = %g, %v; want %g", sp, ok, (8.25-2.75)/5.5)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}
