package main

import "testing"

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tail must sort
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
}

// TestTailLeavesTenSamplesBeyond pins the tail rule: the highest ladder
// percentile whose nearest-rank value has at least ten samples above it.
func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		ok      bool
		pct     float64
		value   float64
		comment string
	}{
		{n: 10, ok: false, comment: "no percentile leaves ten samples above it"},
		{n: 39, ok: false, comment: "p75 is rank 30, nine above"},
		{n: 40, ok: true, pct: 75, value: 30, comment: "p75 is rank 30, ten above"},
		{n: 99, ok: true, pct: 75, value: 75, comment: "p90 is rank 90, nine above"},
		{n: 100, ok: true, pct: 90, value: 90},
		{n: 972, ok: true, pct: 95, value: 924, comment: "p99 is rank 963, nine above"},
		{n: 1000, ok: true, pct: 99, value: 990},
	} {
		pct, v, ok := tail(ramp(tc.n))
		if ok != tc.ok || pct != tc.pct || v != tc.value {
			t.Errorf("tail of %d samples = (p%g, %g, %v), want (p%g, %g, %v) %s", tc.n, pct, v, ok, tc.pct, tc.value, tc.ok, tc.comment)
		}
		if ok {
			beyond := 0
			for _, x := range ramp(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("tail of %d samples leaves %d samples above it", tc.n, beyond)
			}
		}
	}
}
