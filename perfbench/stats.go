package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points dividing xs into four groups,
// computed like Python's statistics.quantiles(xs, n=4) with its default
// "exclusive" method, so the spreads this program reports agree with a
// driver that recomputes them from the printed values. It needs at least
// two samples; with fewer every cut point is the single sample (or NaN).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		// Clamped like statistics.quantiles, which then extrapolates
		// from the two end samples for the outer cuts of tiny inputs.
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// tailBeyond is how many samples must lie beyond the reported tail
// percentile: a percentile backed by fewer slow samples is noise.
const tailBeyond = 10

// tail returns the highest percentile of xs that has at least beyond
// samples above it: for n ascending samples that is the sample at index
// n-1-beyond, which sits at percentile 100*(n-beyond)/n. ok is false
// when there are not enough samples; v is then the maximum and pct 100.
func tail(xs []float64, beyond int) (v, pct float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), false
	}
	i := n - 1 - beyond
	if i < 0 {
		return s[n-1], 100, false
	}
	return s[i], 100 * float64(i+1) / float64(n), true
}

// failRatio is failed ops over attempted ops; an op fails when it
// errors or fails its correctness check. No attempts is a total failure.
func failRatio(failed, attempted int) float64 {
	if attempted <= 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}
