package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metric is one reported number. N is the sample count behind a timing (or
// 1 for a count read off a single result), printed next to the value so a
// reader can judge how much a median is worth.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// metricSet is an insertion-ordered list of metrics; names are unique.
type metricSet []metric

func (ms *metricSet) add(name string, value float64, unit string, n int) {
	*ms = append(*ms, metric{Name: name, Value: value, Unit: unit, N: n})
}

func (ms metricSet) get(name string) (metric, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// percentile returns the p-th percentile (0 < p ≤ 100) of xs by the
// nearest-rank rule: the smallest sample with at least p% of the samples at
// or below it. It returns NaN on an empty input.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// lowerQuartile is the 25th percentile: the time a quarter of the operations
// beat. It is what the timing gated across runs is reported as. The box is
// shared, and neighbours slow identical work by a quarter or more for a
// minute or two at a time; a median follows such an episode as soon as it
// covers half a run, the lower quartile only once it covers three quarters of
// one, so over ten back-to-back runs it moved a third to a half less. The
// minimum would ignore episodes altogether but chases the rare fast spell
// instead.
func lowerQuartile(xs []float64) float64 { return percentile(xs, 25) }

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPercentile picks the highest of the conventional tail percentiles
// that still has at least ten samples beyond it — the rule that keeps a
// "p99" from being one outlier. With fewer than 100 samples no tail
// qualifies and it returns 0: report the median alone.
func tailPercentile(n int) float64 {
	for _, perMille := range []int{999, 990, 950, 900} {
		if n*(1000-perMille)/1000 >= 10 {
			return float64(perMille) / 10
		}
	}
	return 0
}

// durations converts to float64 in the given unit (time.Second,
// time.Millisecond, ...).
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

func (m metric) String() string {
	return fmt.Sprintf("%-14s %-10s n=%d", formatValue(m.Value), m.Unit, m.N)
}

// formatValue keeps every measured digit of small numbers and avoids
// exponent notation for the usual ranges.
func formatValue(v float64) string {
	switch a := math.Abs(v); {
	case a != 0 && a < 0.01:
		return fmt.Sprintf("%.6g", v)
	case a < 1000:
		return fmt.Sprintf("%.6f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}
