package core_test

import (
	"testing"

	"rpls/internal/bitstring"
	"rpls/internal/core"
	"rpls/internal/graph"
	"rpls/internal/prng"
	"rpls/internal/schemes/spanningtree"
)

// planFixture is a small legal spanning-tree configuration with honest
// compiled labels.
func planFixture(t testing.TB) (*graph.Config, core.RPLS, []core.Label) {
	t.Helper()
	rng := prng.New(41)
	g := graph.RandomConnected(9, 5, rng)
	c := graph.NewConfig(g)
	c.AssignRandomIDs(rng)
	for v, p := range g.SpanningTreeParents(0) {
		c.States[v].Parent = p
	}
	r := core.Compile(spanningtree.NewPLS())
	labels, err := r.Label(c)
	if err != nil {
		t.Fatal(err)
	}
	return c, r, labels
}

// comparePlan holds the scheme bound to (c, labels) to the unbound one on
// every node: Certs byte for byte, and Decide, CapDecide (m = 1, 2) and
// DecideLanes on the certificates every node receives, with and without a
// scratch. Each node is also asked about a copy of its label and about its
// successor's label, which the identity check must route to the on-the-fly
// decode. Bound Decide also sees mutated copies of the certificates the
// bound Certs just wrote to the same scratch — bit flip of each
// certificate, each value changed, each point moved — twice each, so the
// evaluation memo must give the unbound verdict on forged input too.
func comparePlan(t *testing.T, c *graph.Config, r core.RPLS, labels []core.Label, seed uint64, flip int) {
	var plan core.Plan
	bound := r.(core.Binder).Bind(c, labels, &plan)
	lanes := []core.LaneRPLS{r.(core.LaneRPLS), bound.(core.LaneRPLS)}
	capped := []core.CappedRPLS{r.(core.CappedRPLS), bound.(core.CappedRPLS)}
	n := c.G.N()
	view := func(v int, sc *core.LaneScratch) core.View {
		vw := core.ViewOf(c, v)
		vw.Scratch = sc
		return vw
	}
	var sc core.LaneScratch
	for _, scratch := range []*core.LaneScratch{nil, &sc} {
		sc.Reset()
		certs := make([][]core.Cert, n)
		merged := map[int][][]core.Cert{}
		for v := 0; v < n; v++ {
			rng := prng.New(seed).Fork(uint64(v))
			certs[v] = r.Certs(core.ViewOf(c, v), labels[v], rng)
			got := bound.Certs(view(v, scratch), labels[v], rng)
			if len(got) != len(certs[v]) {
				t.Fatalf("node %d: bound Certs gives %d certificates, unbound %d", v, len(got), len(certs[v]))
			}
			for i := range got {
				if !got[i].Equal(certs[v][i]) {
					t.Fatalf("node %d port %d: bound certificate %v, unbound %v", v, i+1, got[i], certs[v][i])
				}
			}
			for _, m := range []int{1, 2} {
				merged[m] = append(merged[m], capped[0].CapCerts(m, core.ViewOf(c, v), labels[v], rng))
			}
		}
		gather := func(all [][]core.Cert, v int) []core.Cert {
			recv := make([]core.Cert, c.G.Degree(v))
			for i, h := range c.G.AdjView(v) {
				if out := all[h.To]; h.RevPort-1 < len(out) {
					recv[i] = out[h.RevPort-1]
				}
			}
			return recv
		}
		for v := 0; v < n; v++ {
			recv := gather(certs, v)
			for _, own := range []core.Label{labels[v], labels[v].Clone(), labels[(v+1)%n]} {
				want := r.Decide(core.ViewOf(c, v), own, recv)
				if got := bound.Decide(view(v, scratch), own, recv); got != want {
					t.Fatalf("node %d: bound Decide %v, unbound %v", v, got, want)
				}
				// Lane 1 sees the honest exchange, lane 0 one certificate cut short.
				bad := append([]core.Cert(nil), recv...)
				if len(bad) > 0 {
					bad[0] = bad[0].Truncate(bad[0].Len() - 1)
				}
				wantMask := lanes[0].DecideLanes(core.ViewOf(c, v), own, [][]core.Cert{bad, recv})
				if got := lanes[1].DecideLanes(view(v, scratch), own, [][]core.Cert{bad, recv}); got != wantMask {
					t.Fatalf("node %d: bound DecideLanes %b, unbound %b", v, got, wantMask)
				}
				for _, forged := range mutations(recv, flip) {
					want := r.Decide(core.ViewOf(c, v), own, forged)
					for call := 0; call < 2; call++ {
						if got := bound.Decide(view(v, scratch), own, forged); got != want {
							t.Fatalf("node %d call %d: bound Decide on mutated certificates %v, unbound %v", v, call, got, want)
						}
					}
				}
				for _, m := range []int{1, 2} {
					msgs := gather(merged[m], v)
					want := capped[0].CapDecide(m, core.ViewOf(c, v), own, msgs)
					if got := capped[1].CapDecide(m, view(v, scratch), own, msgs); got != want {
						t.Fatalf("node %d m=%d: bound CapDecide %v, unbound %v", v, m, got, want)
					}
				}
			}
		}
	}
}

// mutations returns copies of recv with one certificate mutated: for every
// port, bit flip%len flipped, and — when the certificate parses — its value
// changed and its point moved.
func mutations(recv []core.Cert, flip int) [][]core.Cert {
	var out [][]core.Cert
	with := func(i int, cert core.Cert) {
		m := append([]core.Cert(nil), recv...)
		m[i] = cert
		out = append(out, m)
	}
	for i, cert := range recv {
		if n := cert.Len(); n > 0 {
			with(i, flipBit(cert, flip%n))
		}
		for _, move := range []func(x, y, p uint64) (uint64, uint64){
			func(x, y, p uint64) (uint64, uint64) { return x, (y + 1) % p },
			func(x, y, p uint64) (uint64, uint64) { return (x + 1) % p, y },
		} {
			if forged, ok := reforge(cert, move); ok {
				with(i, forged)
			}
		}
	}
	return out
}

// TestPlanMatchesUnbound runs comparePlan on honest labels, on honest
// labels over an illegal twin (a second root, which the inner verifier
// rejects behind passing fingerprints), and on label vectors where one
// node's label is malformed, cut short or extended.
func TestPlanMatchesUnbound(t *testing.T) {
	c, r, honest := planFixture(t)
	comparePlan(t, c, r, honest, 1, 0)
	illegal := c.Clone()
	illegal.States[3].Parent = 0
	comparePlan(t, illegal, r, honest, 2, 7)
	for v := range honest {
		for _, l := range []core.Label{{}, honest[v].Truncate(honest[v].Len() - 1), bitstring.Concat(honest[v], bitstring.FromBits([]byte{0}))} {
			labels := append([]core.Label(nil), honest...)
			labels[v] = l
			comparePlan(t, c, r, labels, uint64(v), v)
		}
	}
}

// FuzzCompiledPlan puts arbitrary bytes as one node's label and holds the
// bound scheme to the unbound one on every node (see comparePlan), with
// the fuzzed bit flipped in each certificate the bound Certs wrote.
func FuzzCompiledPlan(f *testing.F) {
	c, r, honest := planFixture(f)
	for v, l := range honest {
		f.Add(l.Bytes(), l.Len(), uint8(v), uint64(v), uint16(v))
	}
	f.Add([]byte{}, 0, uint8(0), uint64(0), uint16(0))
	f.Add([]byte{0xff, 0x00, 0x81}, 20, uint8(3), uint64(9), uint16(30))
	f.Fuzz(func(t *testing.T, data []byte, bits int, node uint8, seed uint64, flip uint16) {
		if bits < 0 || bits > 8*len(data) {
			bits = 8 * len(data)
		}
		labels := append([]core.Label(nil), honest...)
		labels[int(node)%len(labels)] = bitstring.FromBytes(data).Truncate(bits)
		comparePlan(t, c, r, labels, seed, int(flip))
	})
}
