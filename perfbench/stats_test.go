package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helpers must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
	}{
		{20, 0.5, 10},   // rank 10, 10 samples beyond
		{21, 0.5, 11},   // rank 11, 10 beyond
		{100, 0.9, 90},  // rank 90, 10 beyond
		{200, 0.9, 180}, // rank 180, 20 beyond
	} {
		got, err := percentile(seq(tc.n), tc.q)
		if err != nil || got != tc.want {
			t.Errorf("percentile(1..%d, %g) = %v, %v; want %v", tc.n, tc.q, got, err, tc.want)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n int
		q float64
	}{
		{19, 0.5}, // 9 beyond the median
		{99, 0.9}, // 9 beyond p90
		{0, 0.5},
		{5, 0.5},
	} {
		if v, err := percentile(seq(tc.n), tc.q); err == nil {
			t.Errorf("percentile of %d samples at %g = %v, want an error", tc.n, tc.q, v)
		}
	}
	if m, err := percentile(seq(21), 0.5); err != nil || m != 11 {
		t.Errorf("median(1..21) = %v, %v; want 11", m, err)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{2.5, 1.0}, [3]float64{0.625, 1.75, 2.875}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
	} {
		q1, q2, q3, err := quartiles(tc.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if err != nil || math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, %v; want %v", tc.xs, got, err, tc.want)
				break
			}
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample: want an error")
	}
}
