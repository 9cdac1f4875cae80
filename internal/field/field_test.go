package field

import (
	"testing"
	"testing/quick"

	"rpls/internal/bitstring"
	"rpls/internal/prng"
)

func TestIsPrimeSmall(t *testing.T) {
	primes := map[uint64]bool{
		2: true, 3: true, 5: true, 7: true, 11: true, 13: true,
		17: true, 19: true, 23: true, 97: true, 101: true,
		0: false, 1: false, 4: false, 9: false, 15: false, 21: false,
		25: false, 49: false, 91: false, // 91 = 7*13
	}
	for n, want := range primes {
		if got := IsPrime(n); got != want {
			t.Errorf("IsPrime(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestIsPrimeKnownLarge(t *testing.T) {
	cases := map[uint64]bool{
		(1 << 61) - 1:                true,  // Mersenne prime
		(1 << 31) - 1:                true,  // Mersenne prime
		1_000_000_007:                true,  // common prime
		1_000_000_007 * 3:            false, // composite with large factor
		4294967295:                   false, // 2^32-1 = 3*5*17*257*65537
		18446744073709551557:         true,  // largest 64-bit prime
		18446744073709551615:         false, // 2^64-1
		2147483647 * 2147483647 >> 1: false,
	}
	for n, want := range cases {
		if got := IsPrime(n); got != want {
			t.Errorf("IsPrime(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestNextPrime(t *testing.T) {
	cases := []struct{ in, want uint64 }{
		{0, 2}, {2, 2}, {3, 3}, {4, 5}, {8, 11}, {14, 17}, {90, 97},
	}
	for _, c := range cases {
		if got := NextPrime(c.in); got != c.want {
			t.Errorf("NextPrime(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestPrimeForLengthInRange(t *testing.T) {
	for _, lambda := range []int{1, 2, 3, 5, 10, 64, 1000, 1 << 16} {
		p := PrimeForLength(lambda)
		if !IsPrime(p) {
			t.Errorf("PrimeForLength(%d) = %d is not prime", lambda, p)
		}
		if lambda >= 2 && (p <= uint64(3*lambda) || p >= uint64(6*lambda)) {
			t.Errorf("PrimeForLength(%d) = %d outside (3λ, 6λ)", lambda, p)
		}
	}
}

func TestPrimeForError(t *testing.T) {
	for _, c := range []struct {
		lambda int
		eps    float64
	}{{10, 1.0 / 3}, {100, 0.01}, {1000, 0.001}} {
		p := PrimeForError(c.lambda, c.eps)
		if !IsPrime(p) {
			t.Errorf("PrimeForError(%d, %v) = %d not prime", c.lambda, c.eps, p)
		}
		if float64(c.lambda)/float64(p) >= c.eps {
			t.Errorf("PrimeForError(%d, %v) = %d gives error %v >= eps",
				c.lambda, c.eps, p, float64(c.lambda)/float64(p))
		}
	}
}

func TestMulModAgainstWideMultiply(t *testing.T) {
	f := func(a, b uint64) bool {
		const m = 1_000_000_007
		want := (a % m) * (b % m) % m // fits: (1e9)^2 < 2^63
		return MulMod(a, b, m) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulModLargeModulus(t *testing.T) {
	// With modulus near 2^63 the naive product overflows; MulMod must not.
	m := uint64(9223372036854775783) // largest prime < 2^63
	a := m - 1
	b := m - 2
	// (m-1)(m-2) mod m = (−1)(−2) mod m = 2
	if got := MulMod(a, b, m); got != 2 {
		t.Errorf("MulMod((m-1),(m-2),m) = %d, want 2", got)
	}
}

func TestPowMod(t *testing.T) {
	cases := []struct{ a, e, m, want uint64 }{
		{2, 10, 1000, 24},
		{3, 0, 7, 1},
		{5, 1, 7, 5},
		{2, 61, (1 << 61) - 1, 1}, // Fermat: 2^(p-1) ≡ 1... actually 2^61 mod M61 = 2
	}
	// fix the last case properly: 2^61 mod (2^61 - 1) = 1... no: 2^61 = (2^61-1)+1 ≡ 1.
	cases[3].want = 1
	for _, c := range cases {
		if got := PowMod(c.a, c.e, c.m); got != c.want {
			t.Errorf("PowMod(%d,%d,%d) = %d, want %d", c.a, c.e, c.m, got, c.want)
		}
	}
}

func TestPolyEvalKnown(t *testing.T) {
	// bits 1,0,1 → A(x) = 1 + x². Over GF(7): A(3) = 1+9 = 10 ≡ 3.
	s := bitstring.FromBits([]byte{1, 0, 1})
	poly := NewPoly(s, 7)
	if got := poly.Eval(3); got != 3 {
		t.Errorf("A(3) = %d, want 3", got)
	}
	if got := poly.Eval(0); got != 1 {
		t.Errorf("A(0) = %d, want 1", got)
	}
}

func TestFingerprintEqualStringsAlwaysMatch(t *testing.T) {
	// One-sidedness (Lemma A.1): equal strings never produce a mismatch.
	rng := prng.New(8)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		bits := make([]byte, n)
		for i := range bits {
			bits[i] = rng.Bit()
		}
		s := bitstring.FromBits(bits)
		p := PrimeForLength(n)
		fp := NewFingerprint(s, p, rng)
		if !fp.Matches(s) {
			t.Fatalf("fingerprint of a string failed to match itself (n=%d)", n)
		}
	}
}

func TestFingerprintDistinctStringsErrorBelowThird(t *testing.T) {
	// Soundness: distinct λ-bit strings collide with probability < 1/3 when
	// p ∈ (3λ, 6λ). Empirically the rate should be well below 1/3.
	rng := prng.New(9)
	const lambda = 64
	const trials = 3000
	p := PrimeForLength(lambda)
	collisions := 0
	for trial := 0; trial < trials; trial++ {
		a := make([]byte, lambda)
		b := make([]byte, lambda)
		for i := range a {
			a[i] = rng.Bit()
			b[i] = rng.Bit()
		}
		// Force difference in at least one position.
		pos := rng.Intn(lambda)
		b[pos] = 1 - a[pos]
		sa, sb := bitstring.FromBits(a), bitstring.FromBits(b)
		fp := NewFingerprint(sa, p, rng)
		if fp.Matches(sb) {
			collisions++
		}
	}
	rate := float64(collisions) / trials
	if rate >= 1.0/3 {
		t.Errorf("collision rate %v >= 1/3", rate)
	}
}

func TestFingerprintAdversarialWorstCase(t *testing.T) {
	// Worst case: strings differing in exactly the high coefficient produce
	// polynomials differing by x^{λ−1}, which has λ−1 roots... only x=0 is a
	// root of x^{λ-1}, so collision happens only at x = 0: rate ≈ 1/p.
	// A denser disagreement pattern: a = 0^λ, b = 1^λ. A−B = -(1+x+...+x^{λ-1})
	// has at most λ−1 roots in GF(p); measure the exact collision count.
	const lambda = 32
	p := PrimeForLength(lambda)
	zero := bitstring.FromBits(make([]byte, lambda))
	ones := make([]byte, lambda)
	for i := range ones {
		ones[i] = 1
	}
	one := bitstring.FromBits(ones)
	pa, pb := NewPoly(zero, p), NewPoly(one, p)
	agree := 0
	for x := uint64(0); x < p; x++ {
		if pa.Eval(x) == pb.Eval(x) {
			agree++
		}
	}
	if agree > lambda-1 {
		t.Errorf("polynomials agree on %d points, bound is λ−1 = %d", agree, lambda-1)
	}
	if float64(agree)/float64(p) >= 1.0/3 {
		t.Errorf("agreement fraction %d/%d >= 1/3", agree, p)
	}
}

func TestFingerprintEncodeDecodeRoundTrip(t *testing.T) {
	rng := prng.New(10)
	s := bitstring.FromBits([]byte{1, 1, 0, 1, 0, 0, 1})
	p := PrimeForLength(s.Len())
	fp := NewFingerprint(s, p, rng)
	var w bitstring.Writer
	fp.Encode(&w)
	if w.Len() != fp.Bits() {
		t.Errorf("encoded length %d != Bits() %d", w.Len(), fp.Bits())
	}
	got, err := DecodeFingerprint(bitstring.NewReader(w.String()), p)
	if err != nil {
		t.Fatal(err)
	}
	if got.X != fp.X || got.Y != fp.Y {
		t.Errorf("round trip: got (%d,%d), want (%d,%d)", got.X, got.Y, fp.X, fp.Y)
	}
}

func TestDecodeFingerprintRejectsOutOfField(t *testing.T) {
	var w bitstring.Writer
	p := uint64(11)
	width := bitstring.UintBits(p - 1) // 4 bits
	w.WriteUint(13, width)             // 13 >= 11: invalid
	w.WriteUint(3, width)
	if _, err := DecodeFingerprint(bitstring.NewReader(w.String()), p); err == nil {
		t.Error("decoding an out-of-field element should fail")
	}
}

func TestFingerprintBitsIsLogarithmic(t *testing.T) {
	// 2·⌈log₂ p⌉ with p < 6λ means certificate size ≈ 2(log₂ λ + 3).
	for _, lambda := range []int{16, 256, 4096, 1 << 16} {
		p := PrimeForLength(lambda)
		fp := Fingerprint{X: 0, Y: 0, P: p}
		maxBits := 2 * (bitstring.UintBits(uint64(lambda)) + 3)
		if fp.Bits() > maxBits {
			t.Errorf("λ=%d: fingerprint %d bits, want <= %d", lambda, fp.Bits(), maxBits)
		}
	}
}

func TestAddMod(t *testing.T) {
	m := uint64(9223372036854775783)
	if got := AddMod(m-1, m-1, m); got != m-2 {
		t.Errorf("AddMod(m-1, m-1, m) = %d, want m-2", got)
	}
	if got := AddMod(0, 0, 5); got != 0 {
		t.Errorf("AddMod(0,0,5) = %d", got)
	}
	if got := AddMod(7, 8, 5); got != 0 {
		t.Errorf("AddMod(7,8,5) = %d, want 0", got)
	}
}

// evalRef is the reference evaluation: Horner's rule one coefficient at a
// time with the 128-bit MulMod, reducing every step.
func evalRef(s bitstring.String, p, x uint64) uint64 {
	acc := uint64(0)
	for i := s.Len() - 1; i >= 0; i-- {
		acc = AddMod(MulMod(acc, x, p), uint64(s.Bit(i)), p)
	}
	return acc
}

// lazyBoundaryPrimes returns, for every lazy step count s ≥ 2, the largest
// prime p with p^(s+1) ≤ 2^63 — where the unreduced accumulator of the
// chunked walk comes closest to the Barrett limit — checking lazySteps(p)
// against the powers and that the next prime takes fewer than s steps,
// plus 2³¹−1, the largest field of the fast path, which reduces every
// step.
func lazyBoundaryPrimes(t *testing.T) []uint64 {
	t.Helper()
	// powFits reports whether r^k ≤ 2^63.
	powFits := func(r uint64, k int) bool {
		acc := uint64(1)
		for i := 0; i < k; i++ {
			if acc > (1<<63)/r {
				return false
			}
			acc *= r
		}
		return true
	}
	primes := []uint64{1<<31 - 1}
	if got := lazySteps(1<<31 - 1); got != 1 {
		t.Fatalf("lazySteps(2^31-1) = %d, want 1", got)
	}
	for s := 2; ; s++ {
		r := uint64(2)
		for step := uint64(1) << 31; step > 0; step >>= 1 {
			if powFits(r+step, s+1) {
				r += step
			}
		}
		p := r
		for !IsPrime(p) {
			p--
		}
		want := s
		for powFits(p, want+2) {
			want++ // a prime well below the root can take more steps
		}
		if got := lazySteps(p); got != want {
			t.Fatalf("lazySteps(%d) = %d, want %d", p, got, want)
		}
		if got := lazySteps(NextPrime(r + 1)); got >= s {
			t.Fatalf("lazySteps(%d) = %d past the boundary of %d", NextPrime(r+1), got, s)
		}
		if p == primes[len(primes)-1] {
			continue
		}
		primes = append(primes, p)
		if p == 2 {
			return primes
		}
	}
}

// TestLazyStepsShippedPrimes pins the reduction interval of the fields the
// shipped schemes use most: the spanning tree's and mst's.
func TestLazyStepsShippedPrimes(t *testing.T) {
	for p, want := range map[uint64]int{293: 6, 4751: 4} {
		if got := lazySteps(p); got != want {
			t.Errorf("lazySteps(%d) = %d, want %d", p, got, want)
		}
	}
}

// TestEvalManyMatchesEval pins the lane contract: EvalMany is bit-identical
// to per-point Eval at every lane count, for reduced and unreduced points,
// small and large moduli down to GF(2) and GF(3), the largest prime of
// every lazy-reduction interval and the largest field of the fast path,
// and ragged string lengths — with the nibble tables freshly allocated and
// in one scratch reused across every call. Both are held to the 128-bit
// reference.
func TestEvalManyMatchesEval(t *testing.T) {
	rng := prng.New(99)
	primes := []uint64{2, 3, 7, 61, PrimeForLength(200), PrimeForLength(4096), NextPrime(1 << 40)}
	primes = append(primes, lazyBoundaryPrimes(t)...)
	var sc EvalScratch
	for _, p := range primes {
		for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 200, 515} {
			raw := make([]byte, n)
			for i := range raw {
				raw[i] = rng.Bit()
			}
			s := bitstring.FromBits(raw)
			poly := NewPoly(s, p)
			for _, lanes := range []int{1, 2, 8, 64, 3} {
				xs := make([]uint64, lanes)
				for l := range xs {
					if l%3 == 2 {
						xs[l] = rng.Uint64() // unreduced point
					} else {
						xs[l] = rng.Uint64n(p)
					}
				}
				for _, scratch := range []*EvalScratch{nil, &sc} {
					out := make([]uint64, lanes)
					poly.EvalMany(xs, out, scratch)
					for l, x := range xs {
						if want := poly.Eval(x); out[l] != want {
							t.Fatalf("p=%d n=%d lanes=%d scratch=%v lane %d: EvalMany=%d Eval=%d (x=%d)",
								p, n, lanes, scratch != nil, l, out[l], want, x)
						}
						if want := evalRef(s, p, x); out[l] != want {
							t.Fatalf("p=%d n=%d lanes=%d scratch=%v lane %d: EvalMany=%d reference=%d (x=%d)",
								p, n, lanes, scratch != nil, l, out[l], want, x)
						}
					}
				}
			}
		}
	}
}

// nibTableReduced is the reference nibble table: every entry reduced from
// its integer value c₃x³+c₂x²+c₁x+c₀ by one Barrett reduction, as the
// table was first built.
func nibTableReduced(x, p, m uint64) [17]uint64 {
	var t [17]uint64
	x2 := barrettReduce(x*x, p, m)
	x3 := barrettReduce(x2*x, p, m)
	t[16] = barrettReduce(x2*x2, p, m)
	for c := 0; c < 16; c++ {
		v := uint64(c&1) + uint64(c>>1&1)*x + uint64(c>>2&1)*x2 + uint64(c>>3&1)*x3
		t[c] = barrettReduce(v, p, m)
	}
	return t
}

// TestNibTableMatchesReduction pins the add-chain nibble table to the
// reduction-built one: for every x of the small fields, and for random x
// in the largest field of the fast path (p = 2³¹−1), including its edges.
func TestNibTableMatchesReduction(t *testing.T) {
	check := func(p, x uint64) {
		t.Helper()
		m := barrettM(p)
		var got [17]uint64
		for i := range got {
			got[i] = ^uint64(0) // a reused table holds stale entries
		}
		nibTable(x, p, m, &got)
		if want := nibTableReduced(x, p, m); got != want {
			t.Fatalf("p=%d x=%d: add-chain table %v, reduced table %v", p, x, got, want)
		}
	}
	for _, p := range []uint64{2, 3, 5, 7, 293} {
		for x := uint64(0); x < p; x++ {
			check(p, x)
		}
	}
	const big = 1<<31 - 1
	if !IsPrime(big) {
		t.Fatal("2^31-1 should be prime")
	}
	rng := prng.New(7)
	for _, x := range []uint64{0, 1, 2, big - 2, big - 1} {
		check(big, x)
	}
	for i := 0; i < 5000; i++ {
		check(big, rng.Uint64n(big))
	}
}

// TestPrimeForLengthCached checks the memo returns the same prime as a
// fresh search and that repeated calls are allocation-free after warmup.
func TestPrimeForLengthCached(t *testing.T) {
	for _, lambda := range []int{0, 1, 2, 3, 17, 100, 4096} {
		want := NextPrime(uint64(3*max(lambda, 2)) + 1)
		if got := PrimeForLength(lambda); got != want {
			t.Fatalf("PrimeForLength(%d) = %d, want %d", lambda, got, want)
		}
		if got := PrimeForLength(lambda); got != want {
			t.Fatalf("cached PrimeForLength(%d) = %d, want %d", lambda, got, want)
		}
	}
}

// TestEvalCacheOwnsItsKey checks that the cache keeps its own copy of the
// polynomial it tabulated: a caller that rebuilds the string in a reused
// buffer must get the new polynomial's values, not the stale table.
func TestEvalCacheOwnsItsKey(t *testing.T) {
	var c EvalCache
	p := PrimeForLength(64)
	buf := make([]byte, 8)
	xs := make([]uint64, 2*minTableBatch)
	for i := range xs {
		xs[i] = uint64(i*37) % p
	}
	out := make([]uint64, len(xs))
	for round, b := range []byte{0x00, 0xA7, 0xA7, 0x3C} {
		for i := range buf {
			buf[i] = b + byte(i)
		}
		s := bitstring.FromBytesInto(buf, buf) // aliases the reused buffer
		c.EvalMany(s, p, xs, out, nil)
		for i, x := range xs {
			if want := NewPoly(bitstring.FromBytes(buf), p).Eval(x); out[i] != want {
				t.Fatalf("round %d x=%d: cached %d, direct %d", round, x, out[i], want)
			}
		}
	}
}

// FuzzEvalMany holds EvalMany and Eval to the 128-bit reference on
// arbitrary strings, fields and points: p is the prime at or after the
// fuzzed value (so every lazy-reduction interval and the slow path past
// 2³¹ are reachable), and the points, some unreduced, are drawn from the
// fuzzed seed.
func FuzzEvalMany(f *testing.F) {
	f.Add([]byte{0xA5, 0x3C, 0xFF, 0x01, 0x80, 0x7E, 0x55, 0xAA, 0x0F}, uint64(293), uint8(3), uint64(1))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint64(4751), uint8(64), uint64(2))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint64(1<<31-2), uint8(1), uint64(3))
	f.Add([]byte{}, uint64(2), uint8(5), uint64(4))
	f.Fuzz(func(t *testing.T, data []byte, pin uint64, lanes uint8, seed uint64) {
		p := NextPrime(pin%(1<<32) + 1)
		s := bitstring.FromBytes(data)
		rng := prng.New(seed)
		xs := make([]uint64, int(lanes)%64+1)
		for l := range xs {
			if l%4 == 3 {
				xs[l] = rng.Uint64()
			} else {
				xs[l] = rng.Uint64n(p)
			}
		}
		poly := NewPoly(s, p)
		var sc EvalScratch
		for _, scratch := range []*EvalScratch{nil, &sc} {
			out := make([]uint64, len(xs))
			poly.EvalMany(xs, out, scratch)
			for l, x := range xs {
				want := evalRef(s, p, x)
				if out[l] != want {
					t.Fatalf("p=%d λ=%d lane %d: EvalMany=%d reference=%d (x=%d)", p, s.Len(), l, out[l], want, x)
				}
				if got := poly.Eval(x); got != want {
					t.Fatalf("p=%d λ=%d: Eval=%d reference=%d (x=%d)", p, s.Len(), got, want, x)
				}
			}
		}
	})
}
