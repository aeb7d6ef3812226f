package main

import (
	"math"
	"slices"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by
// the nearest-rank rule: the smallest value with at least p% of the
// samples at or below it. sorted must be ascending and non-empty.
func percentile(sorted []int64, p float64) int64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sortedCopy(xs []int64) []int64 {
	s := append([]int64(nil), xs...)
	slices.Sort(s)
	return s
}

// median of a float sample (mean of the two middle values for an even
// count). Returns 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles computed the way
// Python's statistics.quantiles(xs, n=4) computes them (exclusive
// method), so the harness judges its own noise by the driver's rule.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / m
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// histPercentile is percentile over a histogram: hist[v] samples had
// the value v.
func histPercentile(hist []int64, p float64) float64 {
	var n int64
	for _, c := range hist {
		n += c
	}
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for v, c := range hist {
		if seen += c; seen >= rank {
			return float64(v)
		}
	}
	return float64(len(hist) - 1)
}
