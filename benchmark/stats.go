package main

import (
	"math"
	"sort"
)

// This file holds the benchmark's statistics. Everything is exact: latency
// figures are order statistics over the raw per-operation samples, never
// estimates from histogram buckets.

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending-sorted sample: the smallest value with at least p percent of
// the sample at or below it. It returns NaN for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sortedCopy returns xs in ascending order, leaving xs alone.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the nearest-rank 50th percentile of an unsorted sample.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// tailLevels are the percentiles a tail may be reported at, highest first.
var tailLevels = []float64{99.9, 99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a reported tail percentile
// for it to be more than a restatement of the few slowest operations.
const minBeyond = 10

// supportedTail returns the highest percentile in tailLevels, capped at
// limit, that n samples support: at least minBeyond of them lie beyond it.
// It returns 0 when not even the lowest level is supported.
func supportedTail(n int, limit float64) float64 {
	for _, p := range tailLevels {
		if p > limit {
			continue
		}
		rank := int(math.Ceil(p / 100 * float64(n)))
		if n-rank >= minBeyond {
			return p
		}
	}
	return 0
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// which is how the driver measures run-to-run spread. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	at := func(k int) float64 {
		n := len(s)
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// runsMedian is the median of a set of runs as the driver takes it: the
// mean of the two middle values when there is an even number.
func runsMedian(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// spread is the interquartile distance of a set of runs as a share of
// their median: the driver's measure of run-to-run steadiness.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / runsMedian(xs)
}

// sliceRates cuts [0, total) into equal slices and returns the completion
// rate (operations per second) of each. An operation counts towards a slice
// by the share of its own interval that falls inside it, so a slice boundary
// in the middle of a long operation splits it instead of handing it whole to
// one side: with few operations per slice, whole counts would quantise the
// rate. Intervals are [start, end) offsets in nanoseconds.
func sliceRates(startNs, endNs []int64, totalNs int64, slices int) []float64 {
	done := make([]float64, slices)
	width := totalNs / int64(slices)
	for i := range startNs {
		s, e := startNs[i], endNs[i]
		if e <= s {
			e = s + 1
		}
		for k := max(0, int(s/width)); k < slices && int64(k)*width < e; k++ {
			lo, hi := max(s, int64(k)*width), min(e, int64(k+1)*width)
			done[k] += float64(hi-lo) / float64(e-s)
		}
	}
	for k := range done {
		done[k] /= float64(width) / 1e9
	}
	return done
}

// mean returns the arithmetic mean (NaN when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
