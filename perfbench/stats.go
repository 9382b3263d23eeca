package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie strictly above a reported
// percentile. With fewer, the percentile is one or two outliers and moves
// from run to run, so the benchmark refuses to report it.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// rule: the smallest sample with at least q·n samples at or below it. It
// fails when fewer than minBeyond samples lie above that rank.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", q*100)
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("percentile p%g of %d samples has %d beyond it, need %d",
			q*100, n, beyond, minBeyond)
	}
	s := sortedCopy(xs)
	return s[rank-1], nil
}

// quartiles returns the first quartile, the median and the third quartile of
// xs, computed like Python's statistics.quantiles(xs, n=4) with its default
// exclusive method, which is how the spread of repeated runs is judged.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 samples, have %d", n)
	}
	s := sortedCopy(xs)
	at := func(i int) float64 {
		// statistics.quantiles' exclusive method: rescale i to the m = n+1
		// positions, clamp to [1, n-1] and interpolate (or extrapolate) from
		// the two neighbouring samples.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3), nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
