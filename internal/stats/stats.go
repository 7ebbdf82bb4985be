// Package stats provides the small statistical toolkit the evaluation
// harness needs: percentiles and the empirical CDF (Figs. 4, 17, 18), ROC
// curves (Fig. 12), histograms (Fig. 8), and linear least squares for
// calibrating the inventory-cost model's τ₀ and τ̄ (§2.3).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs, or NaN for an
// empty slice.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Percentile returns the p-quantile (p in [0,1]) of xs using linear
// interpolation between order statistics. It does not modify xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median is Percentile(xs, 0.5).
func Median(xs []float64) float64 { return Percentile(xs, 0.5) }

// CDFAt evaluates an empirical CDF of xs at x: the fraction of samples <= x.
func CDFAt(xs []float64, x float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var c int
	for _, v := range xs {
		if v <= x {
			c++
		}
	}
	return float64(c) / float64(len(xs))
}

// Histogram bins xs into `bins` equal-width buckets spanning [min, max].
// It returns the bucket left edges and counts. Used to render the Fig. 8
// phase-mode histogram.
func Histogram(xs []float64, min, max float64, bins int) (edges []float64, counts []int) {
	if bins <= 0 || max <= min {
		return nil, nil
	}
	edges = make([]float64, bins)
	counts = make([]int, bins)
	w := (max - min) / float64(bins)
	for i := range edges {
		edges[i] = min + float64(i)*w
	}
	for _, x := range xs {
		if x < min || x > max {
			continue
		}
		i := int((x - min) / w)
		if i >= bins {
			i = bins - 1
		}
		counts[i]++
	}
	return edges, counts
}
