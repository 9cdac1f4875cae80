package core

import (
	"rpls/internal/bitstring"
	"rpls/internal/field"
	"rpls/internal/prng"
)

// LaneRPLS is the optional batched extension of RPLS. A batched executor
// runs up to 64 Monte-Carlo trials ("lanes") through one graph traversal;
// a scheme implementing LaneRPLS generates certificates and decisions for
// all lanes of a node in one call, amortizing the seed-independent work —
// label parsing, prime selection, the coefficient walk of polynomial
// evaluation — that Certs/Decide would redo per trial.
//
// The contract is strict bit-equivalence with the one-lane entry points:
//
//   - CertsLanes fills out[l][i] for every lane l and port i < view.Deg
//     with exactly Certs(view, own, rngs[l])[i], using the empty Cert for
//     ports past the end of that slice. Every slot must be written — the
//     executor hands in reused storage.
//   - DecideLanes returns a bitmask whose bit l is exactly
//     Decide(view, own, recv[l]).
//
// rngs[l] is the node's forked stream for lane l (the executor derives it
// as prng.New(seed+l).Fork(v)), so coin draws inside a lane are the same
// streams the sequential path would use. len(rngs) and len(recv) are at
// most 64.
//
// view.Scratch is the executor's LaneScratch, or nil. Both methods take
// their working buffers from it, and CertsLanes may build certificates in
// its arena (LaneScratch.CertBytes): such a certificate stays valid until
// the executor's next batch, when the arena is reused. No Cert may
// therefore escape the executor's batch — the executor keeps only the
// votes and bit counts. With a nil scratch every buffer and certificate is
// freshly allocated.
type LaneRPLS interface {
	RPLS
	CertsLanes(view View, own Label, rngs []*prng.Rand, out [][]Cert)
	DecideLanes(view View, own Label, recv [][]Cert) uint64
}

// LaneMask returns the bitmask with the low `lanes` bits set — the
// all-accept vote for a batch of that width.
func LaneMask(lanes int) uint64 {
	if lanes >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(lanes) - 1
}

// FingerprintLanes writes the standard fingerprint certificate (see
// FingerprintCert) for every (lane, port) pair, drawing x from
// rngs[l].Fork(i) exactly as the one-lane schemes do, and evaluating the
// shared polynomial at all points in one batched pass (through cache when
// the scheme provides one; nil evaluates directly). It is the common core
// of the compiled and uniform CertsLanes.
//
// All certificates of a call have the same bit length, so they are framed
// into one slab from sc's certificate arena, and the evaluation points and
// values live in sc's buffers: with a warm scratch the call allocates
// nothing (a nil sc allocates the slab and buffers per call). They are
// returned, lane-major (lane l, port i at l·deg+i), and stay valid until
// sc's next Uint64s call.
//
//pls:hotpath
func FingerprintLanes(s bitstring.String, p uint64, rngs []*prng.Rand, deg int, cache *field.EvalCache, sc *LaneScratch, out [][]Cert) (xs, ys []uint64) {
	lanes := len(rngs)
	buf := sc.Uint64s(2 * lanes * deg)
	xs, ys = buf[:lanes*deg], buf[lanes*deg:]
	for l, rng := range rngs {
		row := xs[l*deg : (l+1)*deg]
		for i := 0; i < deg; i++ {
			row[i] = rng.Fork(uint64(i)).Uint64n(p)
		}
	}
	cache.EvalMany(s, p, xs, ys, sc.Eval())
	lambda := s.Len()
	certBytes := (FingerprintCertBits(lambda, p) + 7) / 8
	slab := sc.CertBytes(lanes * deg * certBytes)
	for l := 0; l < lanes; l++ {
		for i := 0; i < deg; i++ {
			k := (l*deg + i) * certBytes
			out[l][i] = FingerprintCert(slab[k:k:k+certBytes], lambda, p, xs[l*deg+i], ys[l*deg+i])
		}
	}
	return xs, ys
}

var _ LaneRPLS = (*compiled)(nil)

// CertsLanes implements LaneRPLS: the label is decoded and the field
// chosen once — or read from the plan — and the self sub-label's
// polynomial is evaluated at all lanes × ports points in one coefficient
// walk. Bound to a plan, it records those pairs in the scratch's
// evaluation memo for the receivers' DecideLanes.
//
//pls:hotpath
func (c *compiled) CertsLanes(view View, own Label, rngs []*prng.Rand, out [][]Cert) {
	nl, ok := c.decode(view, own)
	if !ok {
		// A node with a malformed label sends empty certificates; its
		// neighbors reject them, and the node itself rejects in Decide.
		for l := range rngs {
			for i := 0; i < view.Deg; i++ {
				out[l][i] = Cert{}
			}
		}
		return
	}
	// No cache: the self sub-label differs per node, so a shared one-entry
	// memo would thrash.
	p := nl.selfPrime()
	xs, ys := FingerprintLanes(nl.self, p, rngs, view.Deg, nil, view.Scratch, out)
	if nl.verdict != nil && p < memoPrimeLimit {
		c.plan.remember(view.Scratch, nl.send, view.Deg, len(rngs), xs, ys)
	}
}

// DecideLanes implements LaneRPLS. Per port, each lane's certificate is
// parsed individually (lanes fail independently under adversarial input),
// but the replica polynomial is evaluated at all surviving lanes' points
// in one batched pass, and the inner deterministic verifier — which sees
// only the replicas, never the coins — runs once for the whole batch, or,
// bound to a plan, once per node for the whole call. Bound to a plan, a
// port whose replica mirrors the sender's own sub-label first looks each
// lane's parsed x up in the scratch's evaluation memo: a recorded x comes
// with the sender's exact A(x), and only the other lanes are evaluated.
//
//pls:hotpath
func (c *compiled) DecideLanes(view View, own Label, recv [][]Cert) uint64 {
	lanes := len(recv)
	sc := view.Scratch
	nl, ok := c.decode(view, own)
	if !ok {
		return 0
	}
	live := LaneMask(lanes)
	for l, r := range recv {
		if len(r) != view.Deg {
			live &^= 1 << uint(l)
		}
	}
	var memo []uint64
	stride := 0
	if nl.verdict != nil {
		memo, stride = sc.evalMemo(c.plan, lanes), len(c.plan.mirror)
	}
	buf := sc.Uint64s(3 * lanes)
	xs, ys, got := buf[:lanes], buf[lanes:2*lanes], buf[2*lanes:]
	idx := sc.Ints(lanes) // idx[k] is the lane of the k-th point to evaluate
	for i := 0; i < view.Deg && live != 0; i++ {
		rep := nl.reps[i]
		p := nl.prime(i)
		mirror := -1
		if memo != nil {
			mirror = c.plan.mirror[nl.send+i]
		}
		k := 0
		for l := 0; l < lanes; l++ {
			bit := uint64(1) << uint(l)
			if live&bit == 0 {
				continue
			}
			x, y, ok := ParseFingerprintCert(recv[l][i], rep.Len(), p)
			if !ok {
				live &^= bit
				continue
			}
			if mirror >= 0 {
				if a, hit := memoValue(memo[l*stride+mirror], x); hit {
					if a != y {
						live &^= bit
					}
					continue
				}
			}
			xs[k], ys[k], idx[k] = x, y, l
			k++
		}
		if k == 0 {
			continue
		}
		field.NewPoly(rep, p).EvalMany(xs[:k], got[:k], sc.Eval())
		for j := 0; j < k; j++ {
			if got[j] != ys[j] {
				live &^= 1 << uint(idx[j])
			}
		}
	}
	if live == 0 || !nl.verify(c.inner, view) {
		return 0
	}
	return live
}
