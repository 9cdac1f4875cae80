package core

import (
	"sync"
	"sync/atomic"

	"rpls/internal/field"
	"rpls/internal/graph"
)

// Binder is implemented by a randomized scheme that can do the
// coin-independent part of its verification once per estimation call.
// Within one call the configuration and the label vector are fixed, and
// only the certificates depend on the coins.
//
// Bind returns the scheme bound to (c, labels), with its per-call state
// built in plan's storage. The bound scheme implements the same optional
// interfaces (LaneRPLS, CappedRPLS) as the receiver, and every method
// returns bit for bit what the receiver returns. It serves calls for c and
// labels until plan is bound again, and no longer. Calls whose label is
// not the one the plan was built from are served unbound.
type Binder interface {
	Bind(c *graph.Config, labels []Label, plan *Plan) RPLS
}

// Plan is the per-call label plan of a compiled scheme (Theorem 3.1). For
// every node it holds the decoded replicated label — the node's own
// sub-label and one replica per port — with the fingerprint prime of each
// sub-label, and a memo of the inner deterministic verdict on them. The
// memo is filled lazily: the first call that gets past a node's
// fingerprint checks runs the inner Verify, and every later call reads the
// stored verdict.
//
// The plan also carries the mirror table of the evaluation memo. Node v
// sends (x, A_v(x)) for its own sub-label on every port, and a neighbour
// whose replica of v's label is bit-identical to it would evaluate the very
// same polynomial at the very same x. The bound CertsLanes therefore
// records each pair it computes in the worker's LaneScratch, keyed by send
// slot and lane (every port draws its own point, so nothing is shared per
// node), and the bound DecideLanes takes A_rep(x) from there whenever the
// parsed x is the recorded one. The memo is only ever filled from the
// sender's own evaluation of a plan sub-label, never from received bits,
// so a hit gives exactly the value evaluation would: the decision stays
// the same function of the certificates, forged ones included.
//
// A Plan is storage. An executor owns one and keeps it across calls, Bind
// rebuilds it in place, and a warm plan builds without allocating; it
// refers to the last bound label vector until the next Bind. The workers
// of one call share it: after Bind they only read it, except for the
// verdict memo, which is atomic and computed at most once per node.
type Plan struct {
	labels []Label // the label vector the plan was built from
	// offs[v] is where node v's sub-labels start in subs and primes: its
	// own sub-label, then one replica per port. offs[v]−v is where its
	// ports start in the send slots, one per (node, port).
	offs   []int
	subs   []Label
	primes []uint64 // primes[k] = field.PrimeForLength(subs[k].Len())
	bytes  []byte   // storage of subs
	nodes  []planNode
	// mirror[e] is, for the replica node u holds on port i (receive slot
	// e = offs[u]−u+i), the send slot of the neighbour's port that carries
	// the fingerprint of that neighbour's own sub-label — when the replica
	// equals that sub-label and its prime is memoizable — and −1 otherwise.
	mirror []int
	gen    uint64   // bumped by every build; the evaluation memo belongs to one
	bound  compiled // the scheme Bind returns, kept here so binding allocates nothing
}

// planNode is one node's verdict memo.
type planNode struct {
	state atomic.Uint32 // verdictPending, verdictAccept, verdictReject or labelMalformed
	mu    sync.Mutex    // held while the inner verdict is computed
}

const (
	verdictPending uint32 = iota
	verdictAccept
	verdictReject
	labelMalformed // the node's label does not decode; no verdict applies
)

// build decodes labels over g into the plan, growing its storage
// only when the graph or the labels outgrow it.
func (p *Plan) build(g *graph.Graph, labels []Label) {
	n := g.N()
	p.labels = labels
	p.offs = grow(p.offs, n+1)
	subs, nbytes := 0, 0
	for v := 0; v < n; v++ {
		p.offs[v] = subs
		deg := g.Degree(v)
		subs += deg + 1
		nbytes += splitBytes(labels[v], deg)
	}
	p.offs[n] = subs
	p.subs = grow(p.subs, subs)
	p.primes = grow(p.primes, subs)
	p.bytes = grow(p.bytes, nbytes)
	p.nodes = grow(p.nodes, n)
	clear(p.nodes)

	buf := p.bytes
	lastLen, lastP := -1, uint64(0)
	for v := 0; v < n; v++ {
		lo, hi := p.offs[v], p.offs[v+1]
		nb := splitBytes(labels[v], hi-lo-1)
		self, err := splitInto(labels[v], p.subs[lo+1:hi], buf[:nb:nb])
		buf = buf[nb:]
		if err != nil {
			p.nodes[v].state.Store(labelMalformed)
			continue
		}
		p.subs[lo] = self
		for k := lo; k < hi; k++ {
			// Neighbouring sub-labels mostly share a length, so the last
			// prime is remembered rather than looked up again.
			if l := p.subs[k].Len(); l != lastLen {
				lastLen, lastP = l, field.PrimeForLength(l)
			}
			p.primes[k] = lastP
		}
	}
	p.buildMirror(g)
	p.gen++
}

// buildMirror fills the mirror table: replica slot (u, i) mirrors send
// slot (v, RevPort) when neither label is malformed and u's replica is
// String.Equal to v's own sub-label, so both have the same prime.
func (p *Plan) buildMirror(g *graph.Graph) {
	n := g.N()
	p.mirror = grow(p.mirror, p.offs[n]-n)
	for u := 0; u < n; u++ {
		rcv := p.offs[u] - u
		for i, h := range g.AdjView(u) {
			p.mirror[rcv+i] = -1
			v := h.To
			if p.nodes[u].state.Load() == labelMalformed || p.nodes[v].state.Load() == labelMalformed {
				continue
			}
			if self := p.offs[v]; p.primes[self] < memoPrimeLimit && p.subs[p.offs[u]+1+i].Equal(p.subs[self]) {
				p.mirror[rcv+i] = self - v + h.RevPort - 1
			}
		}
	}
}

// memoPrimeLimit bounds the fields whose fingerprints the evaluation memo
// records: x and y both fit in 32 bits, so an entry packs into one word.
const memoPrimeLimit = 1 << 32

// memoEntry packs the pair (x, y) of a field below memoPrimeLimit into one
// memo word. The empty entry is 0, which no pair packs to.
func memoEntry(x, y uint64) uint64 { return (x+1)<<32 | y }

// memoValue returns y when entry e records the point x, and ok=false when
// it records another point or none.
func memoValue(e, x uint64) (y uint64, ok bool) {
	return e & (1<<32 - 1), e>>32 == x+1
}

// remember records in the scratch's evaluation memo the pairs
// (xs[l·deg+i], ys[l·deg+i]), lane l < lanes and port i < deg, that the
// node whose ports start at send slot send just computed for its own
// sub-label. It does nothing without a scratch.
//
//pls:hotpath
func (p *Plan) remember(sc *LaneScratch, send, deg, lanes int, xs, ys []uint64) {
	memo := sc.evalMemo(p, lanes)
	if memo == nil {
		return
	}
	stride := len(p.mirror)
	for l := 0; l < lanes; l++ {
		row := memo[l*stride+send : l*stride+send+deg]
		for i := range row {
			row[i] = memoEntry(xs[l*deg+i], ys[l*deg+i])
		}
	}
}

// grow returns s resized to n, reallocating only when its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// node returns node view.Node's entry when own is the very label the plan
// was built from (an O(1) identity check) for a node of view.Deg ports;
// found is false otherwise, and for a nil plan. ok is false when the label
// is malformed.
func (p *Plan) node(view View, own Label) (nl nodeLabels, ok, found bool) {
	v := view.Node
	if p == nil || v < 0 || v >= len(p.labels) || p.offs[v+1]-p.offs[v] != view.Deg+1 || !own.SameAs(p.labels[v]) {
		return nodeLabels{}, false, false
	}
	m := &p.nodes[v]
	if m.state.Load() == labelMalformed {
		return nodeLabels{}, false, true
	}
	lo, hi := p.offs[v], p.offs[v+1]
	return nodeLabels{self: p.subs[lo], reps: p.subs[lo+1 : hi], primes: p.primes[lo:hi], verdict: m, send: lo - v}, true, true
}

// nodeLabels is one node's decoded compiled label: its own sub-label and
// one replica per port. From a plan it also carries the primes (own
// first, then one per replica), the verdict memo and the node's first
// send slot, which indexes its ports in the mirror table; decoded on the
// fly it has none of them, primes are looked up and the verdict computed
// per call, and the evaluation memo is neither written nor read.
type nodeLabels struct {
	self    Label
	reps    []Label
	primes  []uint64
	verdict *planNode
	send    int
}

// selfPrime returns the fingerprint prime of the node's own sub-label.
func (nl *nodeLabels) selfPrime() uint64 {
	if nl.primes != nil {
		return nl.primes[0]
	}
	return field.PrimeForLength(nl.self.Len())
}

// prime returns the fingerprint prime of the replica on port i+1.
func (nl *nodeLabels) prime(i int) uint64 {
	if nl.primes != nil {
		return nl.primes[i+1]
	}
	return field.PrimeForLength(nl.reps[i].Len())
}

// verify is the inner deterministic verdict on the node's sub-labels,
// read from the plan's memo when there is one.
func (nl *nodeLabels) verify(inner PLS, view View) bool {
	// The inner verifier is a one-lane PLS: it gets no scratch, so the
	// buffers holding an on-the-fly decode stay untouched.
	view.Scratch = nil
	m := nl.verdict
	if m == nil {
		return inner.Verify(view, nl.self, nl.reps)
	}
	s := m.state.Load()
	if s == verdictPending {
		m.mu.Lock()
		if s = m.state.Load(); s == verdictPending {
			s = verdictReject
			if inner.Verify(view, nl.self, nl.reps) {
				s = verdictAccept
			}
			m.state.Store(s)
		}
		m.mu.Unlock()
	}
	return s == verdictAccept
}
