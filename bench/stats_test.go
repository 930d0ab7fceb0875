package main

import (
	"math"
	"testing"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd sample = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even sample = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(percentile(nil, 90)) {
		t.Error("empty samples must report NaN, not a number")
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[99-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); !sameBits(got, c.want) {
			t.Errorf("p%g of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestLowerQuartile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{9, 1, 5, 3, 7}, 3},             // 2 of 5 at or below it
		{[]float64{8, 7, 6, 5, 4, 3, 2, 1}, 2},    // exactly a quarter
		{[]float64{5, 4, 3, 2, 1, 9, 8, 7, 6}, 3}, // 3 of 9
	} {
		if got := lowerQuartile(c.xs); !sameBits(got, c.want) {
			t.Errorf("lowerQuartile(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(lowerQuartile(nil)) {
		t.Error("an empty sample must report NaN")
	}
}

// The tail rule: the highest percentile with at least ten samples beyond
// it, and none at all below a hundred samples.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{8, 0}, {10, 0}, {99, 0}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); !sameBits(got, c.want) {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestMetricCarriesSampleCount(t *testing.T) {
	var ms metricSet
	ms.add("solve_s", 2.5, "s", 8)
	m, ok := ms.get("solve_s")
	if !ok || m.N != 8 || m.Unit != "s" {
		t.Fatalf("get = %+v, %v", m, ok)
	}
	if s := m.String(); s != "2.500000       s          n=8" {
		t.Errorf("metric line = %q", s)
	}
	if _, ok := ms.get("missing"); ok {
		t.Error("get found a metric that was never added")
	}
}
