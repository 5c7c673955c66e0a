package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// The benchmark's yardstick: every latency is kept as a raw sample and
// every statistic below is exact over those samples. Nothing here may
// depend on the store's own instrumentation, so a change to that
// instrumentation cannot move the numbers it is judged by.

// sortSamples sorts raw nanosecond samples in place and returns them.
func sortSamples(s []int64) []int64 {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// rank is the 1-based nearest rank of quantile q among n samples: the
// smallest r with r >= q*n. The epsilon keeps q*n that is an integer in
// exact arithmetic from rounding up a rank in floating point.
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// quantile returns the q-quantile of sorted samples by the nearest-rank
// rule: an actual sample, never an interpolation or a bucket bound. It
// returns 0 for no samples.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(q, len(sorted))-1]
}

// median returns the middle of xs (the mean of the two middle values
// for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns Q1, Q2 and Q3 of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so spreads printed here match the ones the benchmark is
// judged by. Fewer than two values have no spread: all three are xs[0].
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile range of xs as a share of their median.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// tailPoint is the highest percentile a sample supports.
type tailPoint struct {
	label  string
	value  int64
	beyond int // samples above the point
}

// tailLadder is the percentile ladder tail climbs.
var tailLadder = []struct {
	label string
	q     float64
}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}, {"p99.9", 0.999}, {"p99.99", 0.9999}, {"p99.999", 0.99999}}

// tail returns the highest ladder percentile that still has at least
// ten samples beyond it, so a reported tail is never one or two
// outliers. ok is false when not even the median has ten beyond it.
func tail(sorted []int64) (p tailPoint, ok bool) {
	n := len(sorted)
	for _, l := range tailLadder {
		beyond := n - rank(l.q, n)
		if n == 0 || beyond < 10 {
			break
		}
		p, ok = tailPoint{label: l.label, value: quantile(sorted, l.q), beyond: beyond}, true
	}
	return p, ok
}

// describe renders sorted samples as "n=… p50=… <tail>=… (k beyond)".
func describe(sorted []int64) string {
	if len(sorted) == 0 {
		return "n=0"
	}
	s := fmt.Sprintf("n=%d p50=%s", len(sorted), latency(quantile(sorted, 0.5)))
	if p, ok := tail(sorted); ok && p.label != "p50" {
		s += fmt.Sprintf(" %s=%s (%d beyond)", p.label, latency(p.value), p.beyond)
	}
	return s
}

func latency(ns int64) string {
	if ns == failedLatency {
		return "failed"
	}
	return time.Duration(ns).String()
}

// us converts nanoseconds to microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }
