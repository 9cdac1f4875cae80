package main

import (
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail may be reported at, highest
// last. A tail is the highest of them that still has at least minBeyond
// samples strictly above it, so a tail never rests on a handful of runs.
var tailLadder = []float64{75, 90, 95, 99, 99.9}

// minBeyond is the number of samples a tail percentile must leave above it.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank returns the nearest-rank position (1-based) of percentile p in n
// samples: the smallest r with r/n >= p/100.
func rank(p float64, n int) int {
	r := int(p / 100 * float64(n))
	if float64(r) < p/100*float64(n) {
		r++
	}
	if r < 1 {
		r = 1
	}
	return r
}

// median returns the middle sample (the mean of the two middle samples for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail reports the highest ladder percentile with at least minBeyond
// samples above its nearest-rank value; ok is false when the sample count
// supports none.
func tail(xs []float64) (pct, value float64, ok bool) {
	s := sorted(xs)
	for i := len(tailLadder) - 1; i >= 0; i-- {
		p := tailLadder[i]
		r := rank(p, len(s))
		if len(s)-r >= minBeyond {
			return p, s[r-1], true
		}
	}
	return 0, 0, false
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// sum adds durations.
func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
