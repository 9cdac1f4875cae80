package core

import (
	"rpls/internal/bitstring"
	"rpls/internal/field"
)

// The fingerprint certificate is the wire form of Lemma A.1's (x, A(x))
// for a λ-bit string over GF(p): the Elias-gamma code of λ followed by x
// and A(x) in ⌈log₂ p⌉ bits each. Every randomized certificate the shipped
// schemes send is one, directly (Unif) or through the Theorem 3.1
// compiler. The gamma code of λ is λ+1 written in GammaBits(λ) bits, so a
// certificate of at most 64 bits — the tree certificate is 31, uniform's
// 37 — is the single word (λ+1)<<2w | x<<w | y, and is written and parsed
// as one.

// FingerprintCertBits returns the length of the fingerprint certificate of
// a λ-bit string over GF(p).
func FingerprintCertBits(lambda int, p uint64) int {
	return bitstring.GammaBits(uint64(lambda)) + 2*bitstring.UintBits(p-1)
}

// FingerprintCert returns the fingerprint certificate γ(λ) ‖ x ‖ y for
// x, y < p, assembled in buf when it holds (FingerprintCertBits+7)/8 bytes
// (a shorter buf allocates). It is bit for bit the String that WriteGamma
// followed by two WriteUint calls builds: a certificate of at most 64 bits
// is written as that one packed word, a longer one by those calls.
func FingerprintCert(buf []byte, lambda int, p, x, y uint64) Cert {
	w := bitstring.UintBits(p - 1)
	g := bitstring.GammaBits(uint64(lambda))
	if g+2*w <= 64 {
		if cap(buf) < (g+2*w+7)/8 {
			buf = make([]byte, (g+2*w+7)/8)
		}
		return bitstring.UintInto(buf, (uint64(lambda)+1)<<uint(2*w)|x<<uint(w)|y, g+2*w)
	}
	var wr bitstring.Writer
	wr.ResetInto(buf[:0])
	wr.WriteGamma(uint64(lambda))
	wr.WriteUint(x, w)
	wr.WriteUint(y, w)
	return wr.TakeString()
}

// ParseFingerprintCert decodes a fingerprint certificate that must carry
// length λ over GF(p), returning (x, y) and whether the certificate is
// well formed: the gamma prefix decodes to λ, both values lie in GF(p) and
// no bits trail. It accepts exactly the certificates that ReadGamma,
// field.DecodeFingerprint and a Remaining()==0 check accept, with the same
// (x, y). A certificate of the expected length of at most 64 bits is one
// word read, one prefix compare and one split; any other length takes the
// generic reads, which reject it unless a malformed gamma prefix happens
// to wrap around to λ.
func ParseFingerprintCert(cert Cert, lambda int, p uint64) (x, y uint64, ok bool) {
	var r bitstring.Reader
	r.Reset(cert)
	w := bitstring.UintBits(p - 1)
	if total := FingerprintCertBits(lambda, p); lambda >= 0 && total <= 64 && cert.Len() == total {
		v, _ := r.ReadUint(total)
		if v>>uint(2*w) != uint64(lambda)+1 {
			return 0, 0, false
		}
		mask := uint64(1)<<uint(w) - 1
		x, y = v>>uint(w)&mask, v&mask
		if x >= p || y >= p {
			return 0, 0, false
		}
		return x, y, true
	}
	n, err := r.ReadGamma()
	if err != nil || n != uint64(lambda) {
		return 0, 0, false
	}
	fp, err := field.DecodeFingerprint(&r, p)
	if err != nil || r.Remaining() != 0 {
		return 0, 0, false
	}
	return fp.X, fp.Y, true
}

// CheckFingerprint reports whether cert is a well-formed fingerprint
// certificate for a string of s's length over GF(p) whose point (x, y)
// lies on s's polynomial — the receiver's whole check in Lemma A.1.
func CheckFingerprint(cert Cert, s bitstring.String, p uint64) bool {
	x, y, ok := ParseFingerprintCert(cert, s.Len(), p)
	return ok && field.NewPoly(s, p).Eval(x) == y
}
