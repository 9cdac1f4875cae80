package core_test

import (
	"bytes"
	"testing"

	"rpls/internal/bitstring"
	"rpls/internal/core"
	"rpls/internal/field"
	"rpls/internal/prng"
)

// genericParse is the reference fingerprint-certificate parse that
// core.ParseFingerprintCert replaces: ReadGamma must give λ, then
// field.DecodeFingerprint, with no bits left over.
func genericParse(cert core.Cert, lambda int, p uint64) (x, y uint64, ok bool) {
	r := bitstring.NewReader(cert)
	n, err := r.ReadGamma()
	if err != nil || int(n) != lambda {
		return 0, 0, false
	}
	fp, err := field.DecodeFingerprint(r, p)
	if err != nil || r.Remaining() != 0 {
		return 0, 0, false
	}
	return fp.X, fp.Y, true
}

// genericCert is the reference writer: WriteGamma then two WriteUint.
func genericCert(lambda int, p, x, y uint64) core.Cert {
	var w bitstring.Writer
	w.WriteGamma(uint64(lambda))
	fp := field.Fingerprint{X: x, Y: y, P: p}
	fp.Encode(&w)
	return w.String()
}

// checkParse fails t when the packed parser and the reference disagree.
func checkParse(t *testing.T, cert core.Cert, lambda int, p uint64) {
	t.Helper()
	gx, gy, gok := core.ParseFingerprintCert(cert, lambda, p)
	wx, wy, wok := genericParse(cert, lambda, p)
	if gok != wok || gx != wx || gy != wy {
		t.Fatalf("λ=%d p=%d cert=%s: ParseFingerprintCert = (%d, %d, %v), generic parse = (%d, %d, %v)",
			lambda, p, cert, gx, gy, gok, wx, wy, wok)
	}
}

// checkWrite fails t unless FingerprintCert, with and without a caller
// buffer, is byte-identical to the reference writer and parses back.
func checkWrite(t *testing.T, lambda int, p, x, y uint64) {
	t.Helper()
	want := genericCert(lambda, p, x, y)
	buf := make([]byte, 0, (core.FingerprintCertBits(lambda, p)+7)/8)
	for _, got := range []core.Cert{core.FingerprintCert(nil, lambda, p, x, y), core.FingerprintCert(buf, lambda, p, x, y)} {
		if got.Len() != want.Len() || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("λ=%d p=%d x=%d y=%d: FingerprintCert %s, WriteGamma+WriteUint %s", lambda, p, x, y, got, want)
		}
	}
	if got := core.FingerprintCertBits(lambda, p); got != want.Len() {
		t.Fatalf("λ=%d p=%d: FingerprintCertBits %d, written %d", lambda, p, got, want.Len())
	}
	checkParse(t, want, lambda, p)
}

// TestFingerprintCertMatchesGeneric checks the packed writer and parser
// against the generic ones on both sides of the 64-bit limit: every
// honest certificate, and every truncation, extension and one-bit flip of
// it, parsed under its own λ and under neighbouring lengths.
func TestFingerprintCertMatchesGeneric(t *testing.T) {
	rng := prng.New(5)
	for _, lambda := range []int{0, 1, 2, 31, 64, 100, 256, 1000, 1 << 20, 1 << 40} {
		for _, p := range []uint64{1, 2, 3, 5, field.PrimeForLength(lambda % (1 << 24)), 1<<31 - 1, field.NextPrime(1 << 40)} {
			x, y := rng.Uint64n(p), rng.Uint64n(p)
			checkWrite(t, lambda, p, x, y)
			cert := genericCert(lambda, p, x, y)
			variants := []core.Cert{cert, bitstring.Concat(cert, bitstring.FromBits([]byte{0})), bitstring.Concat(cert, bitstring.FromBits([]byte{1}))}
			for k := 0; k < cert.Len(); k++ {
				variants = append(variants, cert.Truncate(k))
				raw := make([]byte, cert.Len())
				for i := range raw {
					raw[i] = cert.Bit(i)
				}
				raw[k] ^= 1
				variants = append(variants, bitstring.FromBits(raw))
			}
			for _, v := range variants {
				for _, l := range []int{lambda - 1, lambda, lambda + 1} {
					checkParse(t, v, l, p)
				}
			}
		}
	}
}

// FuzzFingerprintCert holds ParseFingerprintCert to the generic parse on
// arbitrary bytes, bit lengths, λ and p — accept exactly when it accepts,
// with the same (x, y) — and FingerprintCert to WriteGamma + 2×WriteUint
// byte for byte, packed up to 64 bits and by the fallback past them.
func FuzzFingerprintCert(f *testing.F) {
	add := func(c core.Cert, lambda int, p, x, y uint64) {
		f.Add(c.Bytes(), c.Len(), lambda, p, x, y)
	}
	add(genericCert(100, 307, 5, 300), 100, 307, 5, 300) // the 31-bit tree shape
	add(genericCert(256, 769, 0, 768), 256, 769, 0, 768) // uniform's 37 bits
	add(genericCert(1<<20, 1<<31-1, 7, 9), 1<<20, 1<<31-1, 7, 9)
	add(genericCert(3, 0, 1, 2), 3, 0, 1, 2) // p = 0: 64-bit fields
	add(core.Cert{}, 0, 2, 0, 0)
	add(core.Cert{}, -1, 5, 1, 1)
	// A gamma prefix of 64 zeros wraps around to λ in ReadGamma; the
	// generic parse accepts it, so the packed parser must too.
	var w bitstring.Writer
	for i := 0; i < 64; i++ {
		w.WriteBit(0)
	}
	w.WriteBit(1)
	w.WriteUint(6, 64) // λ+1 for λ = 5
	w.WriteUint(3, 3)
	w.WriteUint(4, 3)
	add(w.String(), 5, 7, 3, 4)
	f.Fuzz(func(t *testing.T, data []byte, bits, lambda int, p, x, y uint64) {
		if bits < 0 || bits > 8*len(data) {
			bits = 8 * len(data)
		}
		checkParse(t, bitstring.FromBytes(data).Truncate(bits), lambda, p)
		if lambda < 0 {
			return // no certificate frames a negative length
		}
		if p > 0 {
			x, y = x%p, y%p
		}
		checkWrite(t, lambda, p, x, y)
	})
}
