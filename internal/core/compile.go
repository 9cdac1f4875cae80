package core

import (
	"fmt"

	"rpls/internal/bitstring"
	"rpls/internal/field"
	"rpls/internal/graph"
	"rpls/internal/prng"
)

// Compile implements Theorem 3.1: given a deterministic PLS with
// verification complexity κ, it returns a one-sided, edge-independent RPLS
// with verification complexity O(log κ).
//
// Construction (Appendix A): the compiled prover replicates each node's
// label onto all its neighbors — the new label of v is the vector
// (ℓ(v), ℓ(w₁), …, ℓ(w_d)) ordered by port. During verification, v does not
// send its label; instead, per port it draws a uniform x in GF(p) for a
// prime 3κ < p < 6κ and sends the fingerprint (x, A(x)) of ℓ(v) viewed as a
// polynomial (Lemma A.1). The receiver checks the fingerprint against its
// stored replica of the sender's label and, if every replica passes, runs
// the original deterministic verifier on the replicas.
//
// Equal strings always fingerprint-match, so legal configurations are
// accepted with probability 1 (one-sided). On illegal configurations either
// some replica is inconsistent — detected with probability > 2/3 on that
// edge — or all replicas are faithful and the deterministic verifier
// rejects outright.
//
// The transmitted certificate also carries the label length in Elias-gamma
// form (2⌊log κ⌋+1 bits): a fingerprint alone cannot distinguish a string
// from the same string with trailing zero bits, since both induce the same
// polynomial.
func Compile(p PLS) RPLS {
	return &compiled{inner: p}
}

// CompiledCertBits predicts the exact number of bits a compiled scheme
// puts on one port when the inner label is kappa bits long: the
// Elias-gamma length prefix plus the (x, A(x)) fingerprint over GF(p) for
// p = PrimeForLength(kappa). This is the analytic form of the Theorem 3.1
// O(log κ) bound; the wire-accounting tests and the E1/E19 experiment
// tables check the metered cost against it bit for bit.
func CompiledCertBits(kappa int) int {
	if kappa < 0 {
		kappa = 0
	}
	return FingerprintCertBits(kappa, field.PrimeForLength(kappa))
}

type compiled struct {
	inner PLS
}

var _ RPLS = (*compiled)(nil)

func (c *compiled) Name() string   { return c.inner.Name() + "+compiled" }
func (c *compiled) OneSided() bool { return true }

// Label builds the replicated label vector. Each sub-label is written with
// a gamma length prefix so it can be decoded without trusting the content.
func (c *compiled) Label(cfg *graph.Config) ([]Label, error) {
	base, err := c.inner.Label(cfg)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", c.inner.Name(), err)
	}
	if len(base) != cfg.G.N() {
		return nil, fmt.Errorf("compile %s: %d labels for %d nodes", c.inner.Name(), len(base), cfg.G.N())
	}
	out := make([]Label, cfg.G.N())
	for v := range out {
		var w bitstring.Writer
		writeSub(&w, base[v])
		for _, h := range cfg.G.AdjView(v) {
			writeSub(&w, base[h.To])
		}
		out[v] = w.String()
	}
	return out, nil
}

func writeSub(w *bitstring.Writer, s bitstring.String) {
	w.WriteGamma(uint64(s.Len()))
	w.WriteString(s)
}

// readSub reads one gamma-framed sub-label, assembling it at the front of
// buf when buf has room (ReadStringInto), and returns the rest of buf.
func readSub(r *bitstring.Reader, buf []byte) (bitstring.String, []byte, error) {
	n, err := r.ReadGamma()
	if err != nil {
		return bitstring.String{}, buf, err
	}
	if n > 1<<30 {
		return bitstring.String{}, buf, fmt.Errorf("compiled label: implausible sub-label length %d", n)
	}
	nb := min((int(n)+7)/8, len(buf))
	s, err := r.ReadStringInto(int(n), buf[:0:nb])
	return s, buf[nb:], err
}

// splitLabel decodes the replicated vector: own label plus one replica per
// port. Returns an error on malformed (adversarial) labels. The sub-labels
// and the replica slice live in sc's Bytes and Labels buffers — a nil sc
// allocates them — and are valid until sc's next use of those buffers.
func (c *compiled) splitLabel(own Label, deg int, sc *LaneScratch) (self Label, replicas []Label, err error) {
	var r bitstring.Reader
	r.Reset(own)
	// Each sub-label needs at most one byte beyond its share of own's bits.
	buf := sc.Bytes((own.Len()+7)/8 + deg + 1)
	self, buf, err = readSub(&r, buf)
	if err != nil {
		return Label{}, nil, fmt.Errorf("own sub-label: %w", err)
	}
	replicas = sc.Labels(deg)
	for i := 0; i < deg; i++ {
		replicas[i], buf, err = readSub(&r, buf)
		if err != nil {
			return Label{}, nil, fmt.Errorf("replica %d: %w", i, err)
		}
	}
	if r.Remaining() != 0 {
		return Label{}, nil, fmt.Errorf("trailing bits in compiled label")
	}
	return self, replicas, nil
}

// Certs fingerprints the node's own sub-label once per port with
// independent coins (edge independence, Definition 4.5).
func (c *compiled) Certs(view View, own Label, rng *prng.Rand) []Cert {
	self, _, err := c.splitLabel(own, view.Deg, nil)
	if err != nil {
		// A node with a malformed label sends empty certificates; its
		// neighbors reject them, and the node itself rejects in Decide.
		return make([]Cert, view.Deg)
	}
	p := field.PrimeForLength(self.Len())
	certs := make([]Cert, view.Deg)
	for i := range certs {
		fp := field.NewFingerprint(self, p, rng.Fork(uint64(i)))
		certs[i] = FingerprintCert(nil, self.Len(), p, fp.X, fp.Y)
	}
	return certs
}

// Decide checks every received fingerprint against the stored replica of
// that neighbor's label — a certificate for another length rejects
// outright, as the replica cannot equal the sender's label — then runs the
// original deterministic verifier on the replicas.
func (c *compiled) Decide(view View, own Label, received []Cert) bool {
	self, replicas, err := c.splitLabel(own, view.Deg, nil)
	if err != nil {
		return false
	}
	if len(received) != view.Deg {
		return false
	}
	for i, cert := range received {
		if !CheckFingerprint(cert, replicas[i], field.PrimeForLength(replicas[i].Len())) {
			return false
		}
	}
	return c.inner.Verify(view, self, replicas)
}

var _ CappedRPLS = (*compiled)(nil)

// CapCerts implements CappedRPLS by payload merging: every port's
// fingerprint is a fingerprint of the SAME string — the node's own
// sub-label, drawn with the unicast coins rng.Fork(port) — so the class
// messages are just CapMerge bundles of the unicast certificates. Any
// deterministic scheme run through Compile therefore degrades natively
// under a multiplicity cap.
func (c *compiled) CapCerts(m int, view View, own Label, rng *prng.Rand) []Cert {
	return CapMerge(c.Certs(view, own, rng), m)
}

// CapDecide mirrors Decide for the merged wire format: every member of
// the class message received on port i fingerprints the sender's own
// sub-label, so all of them must match the stored replica of that label.
// Equal strings always match (one-sided completeness); the reverse edge's
// own fingerprint is among the members, so soundness is at least unicast.
func (c *compiled) CapDecide(_ int, view View, own Label, received []Cert) bool {
	self, replicas, err := c.splitLabel(own, view.Deg, nil)
	if err != nil {
		return false
	}
	if len(received) != view.Deg {
		return false
	}
	for i, msg := range received {
		members, err := CapSplit(msg)
		if err != nil {
			return false
		}
		if len(members) == 0 {
			return false // the reverse edge's fingerprint must be present
		}
		p := field.PrimeForLength(replicas[i].Len())
		for _, cert := range members {
			if !CheckFingerprint(cert, replicas[i], p) {
				return false
			}
		}
	}
	return c.inner.Verify(view, self, replicas)
}
