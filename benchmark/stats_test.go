package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {91, 100}, {99, 100}, {100, 100}, {10, 10}, {1, 10}, {75, 80},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample: %g", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty sample must be NaN, not a number that looks measured")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of unsorted = %g", got)
	}
}

func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n           int
		limit, want float64
	}{
		{9, 99, 0},       // nothing has ten samples beyond it
		{40, 99, 75},     // p75 of 40: rank 30, ten beyond
		{39, 99, 0},      // p75 of 39: rank 30, nine beyond
		{100, 99, 90},    // p90: rank 90, ten beyond; p95 leaves five
		{200, 99, 95},    // p95: rank 190
		{1000, 99, 99},   // p99: rank 990
		{999, 99, 95},    // p99: rank 990, nine beyond
		{100000, 99, 99}, // capped at the named percentile
		{100000, 99.9, 99.9},
		{1000, 95, 95},
	} {
		if got := supportedTail(c.n, c.limit); got != c.want {
			t.Errorf("supportedTail(%d, %g) = %g, want %g", c.n, c.limit, got, c.want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4) and
// statistics.median print for the same lists.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{5, 1, 9, 3}, 1.5, 4, 8},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10.5, 11, 9.75, 10, 10.25, 12, 10.1, 9.9, 10.3, 10.6}, 9.975, 10.275, 10.7},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
		if m := runsMedian(c.xs); math.Abs(m-c.med) > 1e-12 {
			t.Errorf("runsMedian(%v) = %g, want %g", c.xs, m, c.med)
		}
		if got, want := spread(c.xs), (c.q3-c.q1)/c.med; math.Abs(got-want) > 1e-12 {
			t.Errorf("spread(%v) = %g, want %g", c.xs, got, want)
		}
	}
	if spread([]float64{4}) != 0 {
		t.Error("one run has no spread")
	}
}

func TestSliceRatesSplitOperationsAcrossBoundaries(t *testing.T) {
	const sec = int64(1e9)
	// Two slices of 1 s. One op inside the first; one straddling the
	// boundary evenly; one running past the end of the phase by half.
	starts := []int64{0, sec / 2, 3 * sec / 2}
	ends := []int64{sec / 4, 3 * sec / 2, 5 * sec / 2}
	got := sliceRates(starts, ends, 2*sec, 2)
	want := []float64{1.5, 1.0}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("slice %d: %g ops/s, want %g", i, got[i], want[i])
		}
	}
	// The median slice ignores one stalled slice.
	var s, e []int64
	for k := int64(0); k < 5; k++ {
		n := int64(100)
		if k == 2 {
			n = 1 // a stall
		}
		for i := int64(0); i < n; i++ {
			s = append(s, k*sec+i*sec/n)
			e = append(e, k*sec+(i+1)*sec/n)
		}
	}
	if got := median(sliceRates(s, e, 5*sec, 5)); math.Abs(got-100) > 1e-6 {
		t.Errorf("median slice = %g ops/s, want 100", got)
	}
}

func TestWorseByFollowsDirection(t *testing.T) {
	if got := worseBy(100, 110, "lower"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("latency up 10%%: worse by %g", got)
	}
	if got := worseBy(100, 90, "higher"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("throughput down 10%%: worse by %g", got)
	}
	if worseBy(100, 90, "lower") >= 0 || worseBy(100, 110, "higher") >= 0 {
		t.Error("an improvement must not count as worse")
	}
}
