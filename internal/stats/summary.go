package stats

import (
	"math"
	"slices"
	"sort"
)

// Summary holds order statistics and moments of a sample.
type Summary struct {
	N                       int
	Mean, Std               float64
	Min, Max, Median        float64
	P05, P25, P75, P95, P99 float64
}

// Summarize computes a Summary of xs. It copies xs before sorting, so the
// input is not modified. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	var s Summary
	s.N = len(xs)
	if s.N == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.Median = Quantile(sorted, 0.5)
	s.P05 = Quantile(sorted, 0.05)
	s.P25 = Quantile(sorted, 0.25)
	s.P75 = Quantile(sorted, 0.75)
	s.P95 = Quantile(sorted, 0.95)
	s.P99 = Quantile(sorted, 0.99)
	s.Mean = Mean(xs)
	s.Std = Std(xs)
	return s
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Std returns the sample standard deviation (n-1 denominator; 0 if n < 2).
func Std(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of an already-sorted slice,
// using linear interpolation between order statistics.
//
// Edge cases are explicit: a NaN q returns NaN for every sample size (it
// used to fall through the range guards and index with int(floor(NaN)) — a
// panic on samples of two or more); q outside [0,1] clamps to the extremes.
// ±Inf VALUES propagate: a quantile landing exactly on an infinite order
// statistic returns it, and one interpolating strictly between a finite
// value and ±Inf returns ±Inf; only interpolating between -Inf and +Inf is
// NaN (undefined). The slice is assumed NaN-free — sort.Float64s places NaN
// values arbitrarily, so a sample containing NaN has no meaningful order
// statistics.
func Quantile(sorted []float64, q float64) float64 {
	if math.IsNaN(q) {
		return math.NaN()
	}
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	frac := pos - float64(lo)
	if frac == 0 {
		// Exact order statistic: no interpolation, so an infinite value
		// comes back as itself instead of the NaN that 0·Inf would yield.
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Quantiles returns the q-quantiles of xs, sorting one private copy once
// and interpolating every requested quantile from it (so xs need not be
// pre-sorted and is not modified). An empty sample yields all zeros.
func Quantiles(xs []float64, qs ...float64) []float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = Quantile(sorted, q)
	}
	return out
}

// MeanCI returns the mean of xs together with the half-width of an
// approximate 95% confidence interval (normal approximation).
func MeanCI(xs []float64) (mean, halfWidth float64) {
	n := len(xs)
	mean = Mean(xs)
	if n < 2 {
		return mean, 0
	}
	halfWidth = 1.96 * Std(xs) / math.Sqrt(float64(n))
	return mean, halfWidth
}

// MaxFloat returns the maximum of xs, or 0 for an empty slice.
func MaxFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// MinFloat returns the minimum of xs, or 0 for an empty slice.
func MinFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// MinAcross returns, index by index, the minimum of runs of equal length —
// per-epoch walls of repeated runs, for instance, where one GC pause or
// preemption in one run must not poison the comparison.
func MinAcross(runs [][]int64) []int64 {
	mins := slices.Clone(runs[0])
	for _, run := range runs[1:] {
		for i, v := range run {
			mins[i] = min(mins[i], v)
		}
	}
	return mins
}
