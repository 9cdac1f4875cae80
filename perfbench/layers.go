package main

import (
	"time"

	"rpls/internal/bitstring"
	"rpls/internal/field"
	"rpls/internal/obs"
	"rpls/internal/prng"
)

// Sinks keep the compiler from discarding the timed calls.
var (
	sinkFingerprint field.Fingerprint
	sinkBool        bool
	sinkUint        uint64
)

// nsPerCall returns fn's cost in nanoseconds: the median over five timed
// batches, each grown until it takes at least 20 ms.
func nsPerCall(fn func()) float64 {
	timeBatch := func(n int) time.Duration {
		t0 := obs.Clock()
		for i := 0; i < n; i++ {
			fn()
		}
		return obs.Since(t0)
	}
	n := 1
	for timeBatch(n) < 20*time.Millisecond {
		n *= 2
	}
	var xs []float64
	for r := 0; r < 5; r++ {
		xs = append(xs, float64(timeBatch(n).Nanoseconds())/float64(n))
	}
	return median(xs)
}

// measureCodecLayers times the field and bitstring layers on a random
// string of the workload's label length lambda (in bits): a fingerprint
// over GF(PrimeForLength(lambda)) and its check, and writing and reading
// the string through bitstring.Writer and Reader.
func measureCodecLayers(seed uint64, lambda int, rep *report) {
	lambda = max(lambda, 1)
	rng := prng.New(seed)
	raw := make([]byte, (lambda+7)/8)
	for i := range raw {
		raw[i] = byte(rng.Uint64())
	}
	s := bitstring.FromBytes(raw).Truncate(lambda)
	p := field.PrimeForLength(lambda)

	rep.layer["field.fingerprint_ns"] = nsPerCall(func() { sinkFingerprint = field.NewFingerprint(s, p, rng) })
	fp := field.NewFingerprint(s, p, rng)
	rep.layer["field.matches_ns"] = nsPerCall(func() { sinkBool = fp.Matches(s) })

	var w bitstring.Writer
	buf := make([]byte, 0, len(raw))
	kbits := float64(lambda) / 1000
	rep.layer["bitstring.write_ns_per_kbit"] = nsPerCall(func() {
		w.ResetInto(buf)
		w.WriteString(s)
	}) / kbits
	var r bitstring.Reader
	rep.layer["bitstring.read_ns_per_kbit"] = nsPerCall(func() {
		r.Reset(s)
		for r.Remaining() > 0 {
			v, _ := r.ReadUint(min(64, r.Remaining()))
			sinkUint ^= v
		}
	}) / kbits
}
