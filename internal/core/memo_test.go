package core_test

import (
	"testing"

	"rpls/internal/bitstring"
	"rpls/internal/core"
	"rpls/internal/field"
	"rpls/internal/graph"
	"rpls/internal/prng"
	"rpls/internal/schemes/spanningtree"
)

// The evaluation memo of a bound compiled scheme (see core.Plan) lets a
// receiver take A(x) from the sender's own evaluation instead of
// evaluating its replica. These tests run bound Certs and then bound
// Decide on one scratch, as the executors do, and hold every decision to
// the unbound scheme's — honest, forged and stale certificates alike.

// boundExchange binds r to (c, labels) in plan, runs the bound Certs of
// every node on sc with the coins of seed, and returns the bound scheme
// and the certificates each node receives. The certificates live in sc's
// arena, so sc must not be Reset while they are in use.
func boundExchange(t *testing.T, r core.RPLS, c *graph.Config, labels []core.Label, plan *core.Plan, sc *core.LaneScratch, seed uint64) (core.RPLS, [][]core.Cert) {
	t.Helper()
	bound := r.(core.Binder).Bind(c, labels, plan)
	n := c.G.N()
	sent := make([][]core.Cert, n)
	for v := 0; v < n; v++ {
		view := core.ViewOf(c, v)
		view.Scratch = sc
		sent[v] = bound.Certs(view, labels[v], prng.New(seed).Fork(uint64(v)))
	}
	recv := make([][]core.Cert, n)
	for u := 0; u < n; u++ {
		recv[u] = make([]core.Cert, c.G.Degree(u))
		for i, h := range c.G.AdjView(u) {
			recv[u][i] = sent[h.To][h.RevPort-1]
		}
	}
	return bound, recv
}

// decideBoth returns the bound Decide of node u on sc and the unbound one,
// failing when they differ. Bound Decide runs twice: a certificate must
// not change what a later decision on the same scratch sees.
func decideBoth(t *testing.T, what string, r, bound core.RPLS, c *graph.Config, labels []core.Label, sc *core.LaneScratch, u int, recv []core.Cert) bool {
	t.Helper()
	want := r.Decide(core.ViewOf(c, u), labels[u], recv)
	view := core.ViewOf(c, u)
	view.Scratch = sc
	for call := 0; call < 2; call++ {
		if got := bound.Decide(view, labels[u], recv); got != want {
			t.Fatalf("%s: node %d call %d: bound Decide %v, unbound %v", what, u, call, got, want)
		}
	}
	return want
}

// reforge parses a fingerprint certificate and writes it again with (x, y)
// replaced by move(x, y, p); ok is false for a certificate that does not
// parse.
func reforge(cert core.Cert, move func(x, y, p uint64) (uint64, uint64)) (core.Cert, bool) {
	var r bitstring.Reader
	r.Reset(cert)
	lambda, err := r.ReadGamma()
	if err != nil || lambda > 1<<20 {
		return cert, false
	}
	p := field.PrimeForLength(int(lambda))
	x, y, ok := core.ParseFingerprintCert(cert, int(lambda), p)
	if !ok {
		return cert, false
	}
	x, y = move(x, y, p)
	return core.FingerprintCert(nil, int(lambda), p, x, y), true
}

// flipBit returns a copy of s with bit i flipped.
func flipBit(s bitstring.String, i int) bitstring.String {
	bits := make([]byte, s.Len())
	for k := range bits {
		bits[k] = s.Bit(k)
	}
	bits[i] ^= 1
	return bitstring.FromBits(bits)
}

// compiledLabels builds compiled labels from the inner labels base by
// hand: the own sub-label, then one replica per port, each gamma-framed;
// replica(u, i) may substitute node u's replica on port i.
func compiledLabels(c *graph.Config, base []core.Label, replica func(u, i int, s core.Label) core.Label) []core.Label {
	out := make([]core.Label, c.G.N())
	for u := range out {
		var w bitstring.Writer
		sub := func(s core.Label) {
			w.WriteGamma(uint64(s.Len()))
			w.WriteString(s)
		}
		sub(base[u])
		for i, h := range c.G.AdjView(u) {
			sub(replica(u, i, base[h.To]))
		}
		out[u] = w.String()
	}
	return out
}

// TestMemoHonestAccepts: on honest labels every replica mirrors its
// sender, every lookup hits, and every node accepts.
func TestMemoHonestAccepts(t *testing.T) {
	c, r, labels := planFixture(t)
	var plan core.Plan
	var sc core.LaneScratch
	for seed := uint64(0); seed < 8; seed++ {
		sc.Reset()
		bound, recv := boundExchange(t, r, c, labels, &plan, &sc, seed)
		for u := range recv {
			if !decideBoth(t, "honest", r, bound, c, labels, &sc, u, recv[u]) {
				t.Fatalf("seed %d: honest node %d rejects", seed, u)
			}
		}
	}
}

// TestMemoForgedCertificates forges one port's certificate at a time:
// the sender's x with another value (a memo hit, which must reject), and
// another in-field point with the old value and with the true value of
// the sender's sub-label there (misses, which must evaluate: the first
// mostly rejects, the second accepts). Each is decided twice.
func TestMemoForgedCertificates(t *testing.T) {
	c, r, labels := planFixture(t)
	base, err := spanningtree.NewPLS().Label(c)
	if err != nil {
		t.Fatal(err)
	}
	var plan core.Plan
	var sc core.LaneScratch
	for seed := uint64(0); seed < 4; seed++ {
		sc.Reset()
		bound, recv := boundExchange(t, r, c, labels, &plan, &sc, seed)
		for u := range recv {
			for i, h := range c.G.AdjView(u) {
				poly := field.NewPoly(base[h.To], field.PrimeForLength(base[h.To].Len()))
				forgeries := []struct {
					name   string
					expect string // "accept", "reject", or "" when either may happen
					move   func(x, y, p uint64) (uint64, uint64)
				}{
					{"value changed", "reject", func(x, y, p uint64) (uint64, uint64) { return x, (y + 1) % p }},
					// Before the true value at the moved point: a memo that
					// recorded received pairs would then accept the second call.
					{"point moved, old value", "", func(x, y, p uint64) (uint64, uint64) { return (x + 1) % p, y }},
					{"point moved, true value", "accept", func(x, y, p uint64) (uint64, uint64) {
						x = (x + 1) % p
						return x, poly.Eval(x)
					}},
				}
				for _, f := range forgeries {
					cert, ok := reforge(recv[u][i], f.move)
					if !ok {
						t.Fatalf("node %d port %d: honest certificate does not parse", u, i+1)
					}
					forged := append([]core.Cert(nil), recv[u]...)
					forged[i] = cert
					got := decideBoth(t, f.name, r, bound, c, labels, &sc, u, forged)
					if f.expect != "" && got != (f.expect == "accept") {
						t.Fatalf("%s: node %d port %d decides %v, want %s", f.name, u, i+1, got, f.expect)
					}
				}
			}
		}
	}
}

// trusting accepts whatever the replicas say, so a compiled trusting
// scheme decides on its fingerprint checks alone.
type trusting struct{ core.PLS }

func (trusting) Verify(core.View, core.Label, []core.Label) bool { return true }

// TestMemoNeedsEqualReplica: a replica that differs from the sender's own
// sub-label gets no mirror, so its check evaluates the replica — with a
// mirror it would take the sender's value and always accept. The bound
// decision must equal the unbound one for every seed, and the unbound one
// must reject in some. The inner verifier trusts every replica, so only
// the fingerprint check can reject.
func TestMemoNeedsEqualReplica(t *testing.T) {
	c, _, _ := planFixture(t)
	r := core.Compile(trusting{spanningtree.NewPLS()})
	base, err := spanningtree.NewPLS().Label(c)
	if err != nil {
		t.Fatal(err)
	}
	const u = 2
	labels := compiledLabels(c, base, func(w, i int, s core.Label) core.Label {
		if w != u || i != 0 {
			return s
		}
		return flipBit(s, 0)
	})
	var plan core.Plan
	var sc core.LaneScratch
	rejected := 0
	for seed := uint64(0); seed < 32; seed++ {
		sc.Reset()
		bound, recv := boundExchange(t, r, c, labels, &plan, &sc, seed)
		for w := range recv {
			if !decideBoth(t, "altered replica", r, bound, c, labels, &sc, w, recv[w]) && w == u {
				rejected++
			}
		}
	}
	if rejected == 0 {
		t.Fatal("the altered replica never failed its fingerprint check")
	}
}

// TestMemoRebind rebinds one plan to new labels on one warm scratch and
// decides the certificates sent under the old labels: the memo still
// holds the old senders' exact pairs, which match those certificates, so
// reading them after the rebind would accept what the new replicas
// reject.
func TestMemoRebind(t *testing.T) {
	c, r, labelsA := planFixture(t)
	cB := c.Clone()
	cB.AssignRandomIDs(prng.New(77))
	labelsB, err := r.Label(cB)
	if err != nil {
		t.Fatal(err)
	}
	var plan core.Plan
	var sc core.LaneScratch
	_, recvA := boundExchange(t, r, c, labelsA, &plan, &sc, 5)
	bound := r.(core.Binder).Bind(cB, labelsB, &plan)
	rejected := 0
	for u := range recvA {
		if !decideBoth(t, "stale certificates", r, bound, cB, labelsB, &sc, u, recvA[u]) {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("no node rejected the old labels' certificates")
	}
	// The new labels' own exchange, on the same scratch, accepts everywhere.
	bound, recvB := boundExchange(t, r, cB, labelsB, &plan, &sc, 6)
	for u := range recvB {
		if !decideBoth(t, "after rebind", r, bound, cB, labelsB, &sc, u, recvB[u]) {
			t.Fatalf("node %d rejects its honest exchange after the rebind", u)
		}
	}
}

// TestMemoLanes runs three lanes through bound CertsLanes and DecideLanes
// on one scratch — lane 0 honest, lane 1 with a changed value, lane 2 with
// a moved point — and holds the vote mask to the unbound scheme's.
func TestMemoLanes(t *testing.T) {
	c, r, labels := planFixture(t)
	var plan core.Plan
	var sc core.LaneScratch
	bound := r.(core.Binder).Bind(c, labels, &plan).(core.LaneRPLS)
	const lanes = 3
	n := c.G.N()
	sent := make([][][]core.Cert, n)
	for v := 0; v < n; v++ {
		view := core.ViewOf(c, v)
		view.Scratch = &sc
		rngs := make([]*prng.Rand, lanes)
		out := make([][]core.Cert, lanes)
		for l := range rngs {
			rngs[l] = prng.New(uint64(10 + l)).Fork(uint64(v))
			out[l] = make([]core.Cert, view.Deg)
		}
		bound.CertsLanes(view, labels[v], rngs, out)
		sent[v] = out
	}
	moves := [lanes]func(x, y, p uint64) (uint64, uint64){
		func(x, y, p uint64) (uint64, uint64) { return x, y },
		func(x, y, p uint64) (uint64, uint64) { return x, (y + 1) % p },
		func(x, y, p uint64) (uint64, uint64) { return (x + 1) % p, y },
	}
	for u := 0; u < n; u++ {
		recv := make([][]core.Cert, lanes)
		for l := range recv {
			recv[l] = make([]core.Cert, c.G.Degree(u))
			for i, h := range c.G.AdjView(u) {
				cert, ok := reforge(sent[h.To][l][h.RevPort-1], moves[l])
				if !ok {
					t.Fatalf("node %d lane %d: honest certificate does not parse", u, l)
				}
				recv[l][i] = cert
			}
		}
		want := r.(core.LaneRPLS).DecideLanes(core.ViewOf(c, u), labels[u], recv)
		view := core.ViewOf(c, u)
		view.Scratch = &sc
		if got := bound.DecideLanes(view, labels[u], recv); got != want {
			t.Fatalf("node %d: bound DecideLanes %03b, unbound %03b", u, got, want)
		}
		if want&1 == 0 || want&2 != 0 {
			t.Fatalf("node %d: unbound mask %03b, want the honest lane accepted and the changed value rejected", u, want)
		}
	}
}
