package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs (0 < q ≤ 1): the
// smallest sample with at least q·len(xs) samples at or below it. xs need
// not be sorted; it is not modified. NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to count as measured rather than extrapolated.
const tailMinBeyond = 10

// tail picks the highest percentile that still has tailMinBeyond samples
// beyond it: the (tailMinBeyond+1)-th largest sample, at percentile
// 100·(n−10)/n. Below 2·tailMinBeyond samples that percentile would sit at
// or under the median, so tail reports the maximum instead (pct = 100,
// beyond = 0) and the caller records the sample count with it.
func tail(xs []float64) (value, pct float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0, 0
	}
	s := sortedCopy(xs)
	if n < 2*tailMinBeyond {
		return s[n-1], 100, 0
	}
	k := n - tailMinBeyond - 1
	return s[k], 100 * float64(k+1) / float64(n), n - k - 1
}

// p99OrTail is the p99 when at least tailMinBeyond samples lie beyond it,
// and the tail value otherwise: a p99 over a few hundred samples is one of
// its two or three largest, too noisy to compare across runs.
func p99OrTail(xs []float64) float64 {
	if len(xs) >= 100*tailMinBeyond {
		return quantile(xs, 0.99)
	}
	v, _, _ := tail(xs)
	return v
}

// maxOf returns the largest element (0 for an empty slice).
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
