package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs: the
// smallest sample with at least a q share of the samples at or below
// it. xs need not be sorted; it is not modified. It returns 0 for no
// samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// beyond returns how many of n samples lie strictly above the
// nearest-rank q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// minSamples returns the smallest sample count whose nearest-rank
// q-quantile has at least k samples beyond it: the rule that a
// reported percentile rests on at least k slower samples.
func minSamples(q float64, k int) int {
	n := k
	for beyond(n, q) < k {
		n++
	}
	return n
}

// median returns the middle value of xs (mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method
// of Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), so spreads computed here match ones computed from the same
// values in Python. It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3), true
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) (float64, bool) {
	q1, q3, ok := quartiles(xs)
	med := median(xs)
	if !ok || med == 0 {
		return 0, false
	}
	return math.Abs(q3-q1) / math.Abs(med), true
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
