package main

import (
	"math"
	"testing"
)

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{19, 0}, {20, 50}, {99, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // descending: the helper must sort
		}
		pct, v, n := tailQuantile(xs)
		if pct != tc.want || n != tc.n {
			t.Errorf("n=%d: got p%v over %d samples, want p%v over %d", tc.n, pct, n, tc.want, tc.n)
			continue
		}
		if pct == 0 {
			if !math.IsNaN(v) {
				t.Errorf("n=%d: value %v without a percentile, want NaN", tc.n, v)
			}
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: p%v = %v has %d samples beyond it, want at least 10", tc.n, pct, v, beyond)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for q, want := range map[float64]float64{0: 1, 0.5: 2.5, 1: 4, 0.25: 1.75} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}
