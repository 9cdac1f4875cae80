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
	plan  *Plan // set on a scheme returned by Bind, nil otherwise
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

// splitBytes is the byte storage splitInto needs for own at degree deg:
// each sub-label needs at most one byte beyond its share of own's bits.
func splitBytes(own Label, deg int) int {
	return (own.Len()+7)/8 + deg + 1
}

// splitInto decodes the replicated vector: own label plus one replica per
// port, written to replicas, with every sub-label assembled in buf when it
// holds splitBytes(own, len(replicas)) bytes. Returns an error on
// malformed (adversarial) labels.
func splitInto(own Label, replicas []Label, buf []byte) (self Label, err error) {
	var r bitstring.Reader
	r.Reset(own)
	self, buf, err = readSub(&r, buf)
	if err != nil {
		return Label{}, fmt.Errorf("own sub-label: %w", err)
	}
	for i := range replicas {
		replicas[i], buf, err = readSub(&r, buf)
		if err != nil {
			return Label{}, fmt.Errorf("replica %d: %w", i, err)
		}
	}
	if r.Remaining() != 0 {
		return Label{}, fmt.Errorf("trailing bits in compiled label")
	}
	return self, nil
}

// Bind implements Binder: it decodes every node's replicated label into
// plan once, so the bound scheme's Certs, Decide, CapCerts, CapDecide,
// CertsLanes and DecideLanes skip the decode, the prime lookups and —
// after a node's first verdict — the inner Verify.
func (c *compiled) Bind(cfg *graph.Config, labels []Label, plan *Plan) RPLS {
	plan.build(cfg.G, labels)
	plan.bound = compiled{inner: c.inner, plan: plan}
	return &plan.bound
}

var _ Binder = (*compiled)(nil)

// decode returns the node's labels: the plan's entry when own is the label
// the plan was built from, otherwise own decoded on the fly into
// view.Scratch (valid until the scratch's next Labels and Bytes calls).
// ok is false for a malformed label.
//
//pls:hotpath
func (c *compiled) decode(view View, own Label) (nl nodeLabels, ok bool) {
	if nl, ok, found := c.plan.node(view, own); found {
		return nl, ok
	}
	sc := view.Scratch
	nl.reps = sc.Labels(view.Deg)
	self, err := splitInto(own, nl.reps, sc.Bytes(splitBytes(own, view.Deg)))
	nl.self = self
	return nl, err == nil
}

// Certs fingerprints the node's own sub-label once per port with
// independent coins (edge independence, Definition 4.5). It is the
// one-lane CertsLanes, so the self polynomial is evaluated at all ports'
// points in one coefficient walk; the certificates and their slice come
// from view.Scratch's arenas.
func (c *compiled) Certs(view View, own Label, rng *prng.Rand) []Cert {
	certs := view.Scratch.CertSlots(view.Deg)
	c.CertsLanes(view, own, []*prng.Rand{rng}, [][]Cert{certs})
	return certs
}

// Decide checks every received fingerprint against the stored replica of
// that neighbor's label — a certificate for another length rejects
// outright, as the replica cannot equal the sender's label — then runs the
// original deterministic verifier on the replicas. It is the one-lane
// DecideLanes.
func (c *compiled) Decide(view View, own Label, received []Cert) bool {
	return c.DecideLanes(view, own, [][]Cert{received}) != 0
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
	nl, ok := c.decode(view, own)
	if !ok {
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
		p := nl.prime(i)
		for _, cert := range members {
			if !CheckFingerprint(cert, nl.reps[i], p) {
				return false
			}
		}
	}
	return nl.verify(c.inner, view)
}
