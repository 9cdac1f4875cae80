// Package field implements arithmetic over prime fields GF(p) and the
// polynomial fingerprints at the heart of every randomized certificate in
// the paper.
//
// Lemma A.1 views a λ-bit string a = a₀a₁…a_{λ−1} as the polynomial
// A(x) = a₀ + a₁x + … + a_{λ−1}x^{λ−1} over GF(p) for a prime 3λ < p < 6λ,
// and certifies equality by exchanging (x, A(x)) for a uniform x. Two
// distinct strings agree on at most λ−1 of the p > 3λ points, so the
// one-sided error is below 1/3. This package provides the prime selection,
// the Horner evaluation, and a generalized error knob (choose p > λ/ε for
// per-test error ε) supporting the paper's observation that all schemes are
// oblivious to the confidence parameter.
package field

import (
	"fmt"
	"math/bits"
	"sync"

	"rpls/internal/bitstring"
	"rpls/internal/prng"
)

// MulMod returns a*b mod m without overflow for any 64-bit operands.
func MulMod(a, b, m uint64) uint64 {
	hi, lo := bits.Mul64(a%m, b%m)
	_, rem := bits.Div64(hi, lo, m)
	return rem
}

// AddMod returns (a + b) mod m without overflow.
func AddMod(a, b, m uint64) uint64 {
	a %= m
	b %= m
	if a >= m-b {
		return a - (m - b)
	}
	return a + b
}

// PowMod returns a^e mod m by square-and-multiply.
func PowMod(a, e, m uint64) uint64 {
	if m == 1 {
		return 0
	}
	result := uint64(1)
	a %= m
	for e > 0 {
		if e&1 == 1 {
			result = MulMod(result, a, m)
		}
		a = MulMod(a, a, m)
		e >>= 1
	}
	return result
}

// millerRabinBases is a deterministic witness set for all 64-bit integers
// (Sinclair 2011).
var millerRabinBases = []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}

// IsPrime reports whether n is prime, deterministically for all uint64.
func IsPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	for _, p := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		if n%p == 0 {
			return n == p
		}
	}
	d := n - 1
	r := 0
	for d&1 == 0 {
		d >>= 1
		r++
	}
witness:
	for _, a := range millerRabinBases {
		x := PowMod(a, d, n)
		if x == 1 || x == n-1 {
			continue
		}
		for i := 0; i < r-1; i++ {
			x = MulMod(x, x, n)
			if x == n-1 {
				continue witness
			}
		}
		return false
	}
	return true
}

// NextPrime returns the smallest prime >= n. It panics on overflow, which
// cannot occur for the field sizes used by the schemes (p = O(n·λ)).
func NextPrime(n uint64) uint64 {
	if n <= 2 {
		return 2
	}
	if n&1 == 0 {
		n++
	}
	for {
		if IsPrime(n) {
			return n
		}
		if n > n+2 {
			panic("field: prime search overflow")
		}
		n += 2
	}
}

// primeForLengthCache memoizes PrimeForLength. Schemes call it once per
// Certs and once per Decide — i.e. per node per trial — but only ever for
// the handful of distinct label lengths an experiment produces, so the
// Miller-Rabin search used to dominate estimator-heavy profiles (60% of
// E15) while computing the same few primes over and over.
var primeForLengthCache sync.Map // clamped lambda (int) -> p (uint64)

// PrimeForLength returns a prime p with 3λ < p < 6λ as in Lemma A.1.
// Bertrand's postulate guarantees one exists for λ >= 1; for tiny λ the
// range is padded so the field is never trivially small. Results are
// memoized: the prime is a pure function of λ, and hot verification loops
// ask for the same lengths on every trial.
func PrimeForLength(lambda int) uint64 {
	if lambda < 2 {
		lambda = 2
	}
	if v, ok := primeForLengthCache.Load(lambda); ok {
		return v.(uint64)
	}
	lo := uint64(3*lambda) + 1
	p := NextPrime(lo)
	if p >= uint64(6*lambda) && lambda > 2 {
		// Cannot happen by Bertrand (there is a prime in (3λ, 6λ)), but the
		// invariant is cheap to defend.
		panic(fmt.Sprintf("field: no prime in (3*%d, 6*%d)", lambda, lambda))
	}
	primeForLengthCache.Store(lambda, p)
	return p
}

// PrimeForError returns a prime p > λ/ε, so a polynomial fingerprint of a
// λ-bit string errs with probability < ε. This is the ε-obliviousness knob
// of §1: confidence is tuned purely through the field size.
func PrimeForError(lambda int, eps float64) uint64 {
	if lambda < 1 {
		lambda = 1
	}
	if eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("field: error rate %v out of (0,1)", eps))
	}
	target := float64(lambda) / eps
	if target < 5 {
		target = 5
	}
	return NextPrime(uint64(target) + 1)
}

// Poly is a polynomial over GF(p) whose coefficients are the bits of a
// string: coefficient i is bit i.
type Poly struct {
	bits bitstring.String
	p    uint64
}

// NewPoly interprets s as a polynomial over GF(p).
func NewPoly(s bitstring.String, p uint64) Poly {
	return Poly{bits: s, p: p}
}

// barrettM returns the Barrett constant ⌊(2^64−1)/p⌋. For z < 2^63 and
// q = ⌊z·m / 2^64⌋, q underestimates ⌊z/p⌋ by at most 2, so z − q·p lands
// in [z mod p, z mod p + 2p) and at most two subtractions of p finish the
// reduction — replacing the hardware division that otherwise serializes
// every step of the Horner recurrence.
func barrettM(p uint64) uint64 { return ^uint64(0) / p }

// lazySteps returns the number of Horner steps acc ← acc·a + b (a, b < p)
// that may run between reductions: the largest s ≥ 1 with p^(s+1) ≤ 2^63.
// Starting from a reduced acc, k unreduced steps leave acc < p^(k+1), so
// the s-th step's value is still a legal Barrett input (below 2^63) and no
// product overflows. It is 6 for p = 293, 4 for p = 4751 and 1 — reduce
// every step — near 2^31.
func lazySteps(p uint64) int {
	s := 1
	if p < 2 {
		return s
	}
	for pw := p * p; pw <= (1<<63)/p; pw *= p {
		s++
	}
	return s
}

// barrettReduce returns z mod p given m = barrettM(p), for z < 2^63.
func barrettReduce(z, p, m uint64) uint64 {
	q, _ := bits.Mul64(z, m)
	r := z - q*p
	for r >= p {
		r -= p
	}
	return r
}

// Eval returns the polynomial evaluated at x via Horner's rule, treating
// bit 0 as the constant coefficient: A(x) = a₀ + a₁x + … .
//
// Every scheme in this module uses p = O(n·λ) ≪ 2³¹, so the fast path with
// native 64-bit products and Barrett reduction covers them; the 128-bit
// path keeps the function correct for arbitrary moduli.
func (poly Poly) Eval(x uint64) uint64 {
	p := poly.p
	n := poly.bits.Len()
	if p < 1<<31 {
		x %= p
		m := barrettM(p)
		if n >= evalChunkMin {
			return poly.evalChunked(x, p, m)
		}
		acc := uint64(0)
		// Coefficients high to low, one storage byte at a time: bit index i
		// sits in byte i>>3 at position 7−(i&7).
		for b := (n - 1) >> 3; b >= 0; b-- {
			hi := 8*b + 7
			if hi > n-1 {
				hi = n - 1
			}
			byteVal := poly.bits.ByteAt(b)
			for i := hi; i >= 8*b; i-- {
				bit := uint64(byteVal>>(7-uint(i&7))) & 1
				acc = barrettReduce(acc*x+bit, p, m)
			}
		}
		return acc
	}
	acc := uint64(0)
	for i := n - 1; i >= 0; i-- {
		acc = MulMod(acc, x, p)
		if poly.bits.Bit(i) == 1 {
			acc = AddMod(acc, 1, p)
		}
	}
	return acc
}

// evalChunkMin is the coefficient count from which the nibble-chunked
// Horner walk pays for its table build (three reduced powers plus 15
// add-and-subtract sums per evaluation point).
const evalChunkMin = 64

// revNib[v] is the bit-reversal of the 4-bit value v. Coefficients are
// stored MSB-first within a byte while Horner consumes them high index
// first, so a storage nibble maps to its chunk index by reversal.
var revNib = [16]byte{0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15}

// nibTable fills t with the 16 values c₃x³+c₂x²+c₁x+c₀ mod p indexed by
// the chunk bits c₃c₂c₁c₀, plus x⁴ mod p in t[16] — the constants one
// Horner step of four coefficients needs: acc ← acc·x⁴ + t[c]. It needs a
// reduced x (< p). Only the powers take a Barrett reduction; the 15 sums
// are built by doubling the table one power at a time, t[2^k + c] =
// t[c] + x^k, where both terms are below p and one conditional
// subtraction reduces the sum.
func nibTable(x, p, m uint64, t *[17]uint64) {
	x2 := barrettReduce(x*x, p, m)
	x3 := barrettReduce(x2*x, p, m)
	t[16] = barrettReduce(x2*x2, p, m)
	t[0], t[1] = 0, 1
	if p == 1 {
		t[1] = 0
	}
	for k, xk := range [3]uint64{x, x2, x3} {
		half := 2 << k
		for c := 0; c < half; c++ {
			v := t[c] + xk
			if v >= p {
				v -= p
			}
			t[half+c] = v
		}
	}
}

// evalChunked is the Horner walk four coefficients at a time:
// acc ← acc·x⁴ + (a₃x³+a₂x²+a₁x+a₀), with the 16 possible chunk values
// tabulated once. Only every lazySteps(p)-th step and the last one reduce;
// the steps between keep the accumulator unreduced, which lazySteps proves
// stays a legal Barrett input. The congruence is exact — the result equals
// the bit-at-a-time walk's for every input — with at most a quarter of its
// reductions.
func (poly Poly) evalChunked(x, p, m uint64) uint64 {
	n := poly.bits.Len()
	var t [17]uint64
	nibTable(x, p, m, &t)
	x4 := t[16]
	acc := uint64(0)
	head := n & 3
	for i := n - 1; i >= n-head; i-- {
		bit := uint64(poly.bits.Bit(i))
		acc = barrettReduce(acc*x+bit, p, m)
	}
	// Aligned coefficient groups {4g..4g+3}, high to low: group g sits in
	// byte g>>1, even groups in the high storage nibble.
	lazy, k := lazySteps(p), 0
	for g := (n-head)/4 - 1; g >= 0; g-- {
		b := poly.bits.ByteAt(g >> 1)
		var nib byte
		if g&1 == 0 {
			nib = b >> 4
		} else {
			nib = b & 0xF
		}
		acc = acc*x4 + t[revNib[nib]]
		if k++; k == lazy || g == 0 {
			acc, k = barrettReduce(acc, p, m), 0
		}
	}
	return acc
}

// EvalScratch is reusable storage for the per-point nibble tables of
// EvalMany's chunked walk. The zero value is ready to use; a nil
// *EvalScratch makes EvalMany allocate its tables per call. One scratch
// serves one evaluation at a time.
type EvalScratch struct {
	tabs [][17]uint64
}

// tables returns storage for n nibble tables: a capacity-guarded grow of
// the scratch, or a fresh slice for a nil scratch.
func (sc *EvalScratch) tables(n int) [][17]uint64 {
	if sc == nil {
		return make([][17]uint64, n)
	}
	if cap(sc.tabs) < n {
		sc.tabs = make([][17]uint64, n)
	}
	return sc.tabs[:n]
}

// stackTables holds the nibble tables of EvalMany calls with few points
// and no scratch.
type stackTables [8][17]uint64

// EvalMany evaluates the polynomial at every xs[i], writing A(xs[i]) into
// out[i]. It is the batched form of Eval for trial-lane execution: the
// coefficient bits are walked once for all evaluation points, so the bit
// extraction amortizes across lanes and the independent per-lane Horner
// chains overlap in the CPU pipeline instead of serializing on one
// accumulator. Results are exactly Eval(xs[i]) — same field, same
// arithmetic — at any lane count, including 1. The nibble tables of long
// polynomials live in sc when it is non-nil, so a caller that keeps one
// scratch evaluates without allocating; without one, up to eight points
// evaluate without allocating too.
func (poly Poly) EvalMany(xs, out []uint64, sc *EvalScratch) {
	if len(out) < len(xs) {
		panic(fmt.Sprintf("field: EvalMany out[%d] shorter than xs[%d]", len(out), len(xs)))
	}
	out = out[:len(xs)]
	p := poly.p
	n := poly.bits.Len()
	if p >= 1<<31 {
		for l, x := range xs {
			out[l] = poly.Eval(x)
		}
		return
	}
	for _, x := range xs {
		if x >= p {
			// Unreduced points are legal for Eval; keep the batched form
			// bit-identical without mutating the caller's slice.
			for l, x := range xs {
				out[l] = poly.Eval(x)
			}
			return
		}
	}
	m := barrettM(p)
	for l := range out {
		out[l] = 0
	}
	if n >= evalChunkMin {
		if sc == nil && len(xs) <= len(stackTables{}) {
			// A few points without a scratch — one-lane calls outside the
			// executors — take their tables from the stack.
			var local stackTables
			poly.evalManyChunked(xs, out, p, m, local[:len(xs)])
			return
		}
		poly.evalManyChunked(xs, out, p, m, sc.tables(len(xs)))
		return
	}
	for b := (n - 1) >> 3; b >= 0; b-- {
		hi := 8*b + 7
		if hi > n-1 {
			hi = n - 1
		}
		byteVal := poly.bits.ByteAt(b)
		for i := hi; i >= 8*b; i-- {
			bit := uint64(byteVal>>(7-uint(i&7))) & 1
			for l := range out {
				out[l] = barrettReduce(out[l]*xs[l]+bit, p, m)
			}
		}
	}
}

// evalManyChunked is the batched form of evalChunked: one nibble table per
// lane, held in tabs (len(tabs) == len(xs)), then a single coefficient walk
// feeding every lane's Horner chain four coefficients per step, reducing
// on every lazySteps(p)-th step and the last. Results equal the
// bit-at-a-time walk exactly.
//
//pls:hotpath
func (poly Poly) evalManyChunked(xs, out []uint64, p, m uint64, tabs [][17]uint64) {
	n := poly.bits.Len()
	for l, x := range xs {
		nibTable(x, p, m, &tabs[l])
	}
	head := n & 3
	for i := n - 1; i >= n-head; i-- {
		bit := uint64(poly.bits.Bit(i))
		for l := range out {
			out[l] = barrettReduce(out[l]*xs[l]+bit, p, m)
		}
	}
	lazy, k := lazySteps(p), 0
	for g := (n-head)/4 - 1; g >= 0; g-- {
		b := poly.bits.ByteAt(g >> 1)
		var nib byte
		if g&1 == 0 {
			nib = b >> 4
		} else {
			nib = b & 0xF
		}
		c := revNib[nib]
		if k++; k == lazy || g == 0 {
			k = 0
			for l := range out {
				t := &tabs[l]
				out[l] = barrettReduce(out[l]*t[16]+t[c], p, m)
			}
			continue
		}
		for l := range out {
			t := &tabs[l]
			out[l] = out[l]*t[16] + t[c]
		}
	}
}

// Fingerprint is an evaluation point with the value of a string's polynomial
// there: the pair (x, A(x)) exchanged by Lemma A.1's protocol.
type Fingerprint struct {
	X, Y uint64
	P    uint64 // field modulus, fixed by the scheme, not transmitted
}

// NewFingerprint draws a uniform x in GF(p) with rng and evaluates s there.
func NewFingerprint(s bitstring.String, p uint64, rng *prng.Rand) Fingerprint {
	x := rng.Uint64n(p)
	return Fingerprint{X: x, Y: NewPoly(s, p).Eval(x), P: p}
}

// Matches reports whether the string t is consistent with the fingerprint,
// i.e. whether t's polynomial passes through (X, Y).
func (f Fingerprint) Matches(t bitstring.String) bool {
	return NewPoly(t, f.P).Eval(f.X) == f.Y
}

// Bits returns the number of bits needed to transmit the fingerprint:
// 2·⌈log₂ p⌉ (the modulus is part of the scheme description, not the
// message). This is the quantity Definition 2.1 measures.
func (f Fingerprint) Bits() int {
	return 2 * bitstring.UintBits(f.P-1)
}

// Encode serializes the fingerprint into w using 2·⌈log₂ p⌉ bits.
func (f Fingerprint) Encode(w *bitstring.Writer) {
	width := bitstring.UintBits(f.P - 1)
	w.WriteUint(f.X, width)
	w.WriteUint(f.Y, width)
}

// DecodeFingerprint reads a fingerprint produced by Encode for modulus p.
func DecodeFingerprint(r *bitstring.Reader, p uint64) (Fingerprint, error) {
	width := bitstring.UintBits(p - 1)
	x, err := r.ReadUint(width)
	if err != nil {
		return Fingerprint{}, fmt.Errorf("fingerprint x: %w", err)
	}
	y, err := r.ReadUint(width)
	if err != nil {
		return Fingerprint{}, fmt.Errorf("fingerprint y: %w", err)
	}
	if x >= p || y >= p {
		return Fingerprint{}, fmt.Errorf("fingerprint out of field range (p=%d)", p)
	}
	return Fingerprint{X: x, Y: y, P: p}, nil
}
