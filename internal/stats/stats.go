// Package stats provides the small statistical toolkit the evaluation
// needs: means, deviations, the coefficient of variation used by the paper's
// stability analysis (Table IV), quantiles, histograms and least-squares
// fits for the confidence-distance-vs-accuracy correlation (Fig. 8).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// CV returns the coefficient of variation σ/μ — the paper's stability metric
// for confidence distances (smaller is more stable). It returns 0 when the
// mean is 0.
func CV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return Std(xs) / m
}

// MinMax returns the smallest and largest elements of xs.
func MinMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between order statistics.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i]*(1-frac) + s[i+1]*frac
}

// LinearFit returns the least-squares slope and intercept of y on x, plus the
// Pearson correlation coefficient r. It panics if the lengths differ.
func LinearFit(x, y []float64) (slope, intercept, r float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("stats: LinearFit length mismatch %d vs %d", len(x), len(y)))
	}
	n := float64(len(x))
	if n == 0 {
		return 0, 0, 0
	}
	mx, my := Mean(x), Mean(y)
	var sxx, syy, sxy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	if sxx == 0 {
		return 0, my, 0
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	if syy == 0 {
		return slope, intercept, 0
	}
	return slope, intercept, sxy / math.Sqrt(sxx*syy)
}

// Summary is a five-number-plus description of a sample.
type Summary struct {
	N                int
	Mean, Std, CV    float64
	Min, Median, Max float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	lo, hi := MinMax(xs)
	if len(xs) == 0 {
		lo, hi = 0, 0
	}
	return Summary{
		N: len(xs), Mean: Mean(xs), Std: Std(xs), CV: CV(xs),
		Min: lo, Median: Quantile(xs, 0.5), Max: hi,
	}
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4f std=%.4f cv=%.3f min=%.4f med=%.4f max=%.4f",
		s.N, s.Mean, s.Std, s.CV, s.Min, s.Median, s.Max)
}
