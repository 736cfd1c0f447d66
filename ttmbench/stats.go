package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics. It does not modify xs and
// returns NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentiles are the candidates tailQuantile reports, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailQuantile reports the highest candidate percentile that has at
// least ten samples beyond it, its value, and the sample count. With
// fewer than 20 samples no candidate qualifies and pct is 0.
func tailQuantile(xs []float64) (pct, value float64, n int) {
	n = len(xs)
	for _, p := range tailPercentiles {
		// Samples strictly beyond the p-th percentile: (1 - p/100)·n,
		// computed in integer hundredths to dodge float rounding.
		if n*int(math.Round(1000-10*p)) >= 10*1000 {
			return p, quantile(xs, p/100), n
		}
	}
	return 0, math.NaN(), n
}
