package main

import (
	"math"
	"testing"
)

// refQuantile is the nearest-rank quantile num/den computed in exact
// integer arithmetic: the smallest sample with at least num/den of the
// samples at or below it.
func refQuantile(sorted []int64, num, den int) int64 {
	n := len(sorted)
	for r := 1; r <= n; r++ {
		if r*den >= num*n {
			return sorted[r-1]
		}
	}
	return sorted[n-1]
}

func TestQuantileMatchesSortedReference(t *testing.T) {
	qs := []struct{ num, den int }{{0, 1}, {1, 2}, {9, 10}, {99, 100}, {999, 1000}, {9999, 10000}, {1, 1}}
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000, 1001, 12345} {
		sorted := make([]int64, n)
		for i := range sorted {
			sorted[i] = int64(i*7 + 3) // distinct and increasing, so every rank is visible
		}
		for _, q := range qs {
			got := quantile(sorted, float64(q.num)/float64(q.den))
			if want := refQuantile(sorted, q.num, q.den); got != want {
				t.Errorf("n=%d q=%d/%d: quantile = %d, want %d", n, q.num, q.den, got, want)
			}
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %d, want 0", got)
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.median and statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		med        float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 5.5, 8.25},
		{[]float64{4, 3, 2, 1}, 2.5, 1.25, 2.5, 3.75},
		{[]float64{7, 1}, 4, -0.5, 4, 8.5},
		{[]float64{3.5, 1.25, 9.0, 2.0, 4.75}, 3.5, 1.625, 3.5, 6.875},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread = %v", got)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		label  string
		beyond int
		ok     bool
	}{
		{19, "", 0, false},
		{20, "p50", 10, true},
		{100, "p90", 10, true},
		{999, "p90", 99, true},
		{1000, "p99", 10, true},
		{100000, "p99.99", 10, true},
	}
	for _, c := range cases {
		sorted := make([]int64, c.n)
		for i := range sorted {
			sorted[i] = int64(i)
		}
		p, ok := tail(sorted)
		if ok != c.ok || p.label != c.label || p.beyond != c.beyond {
			t.Errorf("n=%d: tail = %s with %d beyond (ok %v), want %s with %d (ok %v)",
				c.n, p.label, p.beyond, ok, c.label, c.beyond, c.ok)
		}
	}
}
