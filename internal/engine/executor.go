package engine

import (
	goruntime "runtime"
	"sync"

	"rpls/internal/bitstring"
	"rpls/internal/core"
	"rpls/internal/graph"
	"rpls/internal/prng"
)

// Executor runs one synchronous verification round: every node sends one
// string per incident port, receives one string per port, and outputs a
// boolean. Implementations may keep scratch buffers between rounds, so a
// single Executor value must not be shared between concurrent callers.
type Executor interface {
	// Name identifies the executor in reports and benchmarks.
	Name() string
	// Round executes the round. The returned votes slice is scratch owned by
	// the executor, valid only until the next Round call.
	Round(s Scheme, c *graph.Config, labels []core.Label, seed uint64) ([]bool, Stats)
}

// scratch holds the buffers an executor reuses across rounds: one receive
// window per node carved out of a single flat slice, the per-node cert
// slices, and the vote vector. Reusing them keeps steady-state rounds free
// of per-round allocations on the executor side.
type scratch struct {
	offs  []int // offs[v] is the start of v's receive window; offs[n] = 2m
	recv  []core.Cert
	certs [][]core.Cert
	votes []bool
}

// ensure resizes the scratch for the graph. Offsets are recomputed every
// round because configurations are mutated in place by corruption helpers.
// The makes below are capacity-guarded grows: they fire only when the graph
// outgrows the scratch, so steady-state rounds never reach them.
//
//pls:hotpath
func (sc *scratch) ensure(g *graph.Graph) {
	n := g.N()
	if cap(sc.offs) < n+1 {
		sc.offs = make([]int, n+1) //plsvet:allow hotalloc — capacity-guarded grow, amortized across rounds
	}
	sc.offs = sc.offs[:n+1]
	total := 0
	for v := 0; v < n; v++ {
		sc.offs[v] = total
		total += g.Degree(v)
	}
	sc.offs[n] = total
	if cap(sc.recv) < total {
		sc.recv = make([]core.Cert, total) //plsvet:allow hotalloc — capacity-guarded grow, amortized across rounds
	}
	sc.recv = sc.recv[:total]
	if cap(sc.certs) < n {
		sc.certs = make([][]core.Cert, n) //plsvet:allow hotalloc — capacity-guarded grow, amortized across rounds
	}
	sc.certs = sc.certs[:n]
	if cap(sc.votes) < n {
		sc.votes = make([]bool, n) //plsvet:allow hotalloc — capacity-guarded grow, amortized across rounds
	}
	sc.votes = sc.votes[:n]
}

// window returns node v's receive buffer, sized to its degree.
//
//pls:hotpath
func (sc *scratch) window(v int) []core.Cert {
	return sc.recv[sc.offs[v]:sc.offs[v+1]]
}

// gather fills node v's receive window from the generated certificates (or,
// for deterministic schemes, from the neighbors' labels) and returns it.
//
//pls:hotpath
func (sc *scratch) gather(det bool, c *graph.Config, labels []core.Label, v int) []core.Cert {
	recv := sc.window(v)
	for i := range recv {
		h := c.G.Neighbor(v, i+1)
		if det {
			recv[i] = labels[h.To]
			continue
		}
		certs := sc.certs[h.To]
		if h.RevPort-1 < len(certs) {
			recv[i] = certs[h.RevPort-1]
		} else {
			recv[i] = core.Cert{}
		}
	}
	return recv
}

// sendStats accumulates the cost of everything node v puts on the wire.
// It only bumps scalar counters on the caller's Stats. mult is the
// scheme's multiplicity cap (0 = unconstrained); the structural
// distinct-message count is derived from it, never from payload bytes.
//
//pls:hotpath
func sendStats(det bool, mult int, c *graph.Config, labels []core.Label, certs []core.Cert, v int, st *Stats) {
	deg := c.G.Degree(v)
	st.Messages += deg
	st.DistinctMessages += distinctCount(det, mult, deg)
	if det {
		// The message on every port is the node's label: κ (Definition 2.1)
		// is the largest label actually transmitted, not zero.
		b := labels[v].Len()
		st.TotalWireBits += int64(deg * b)
		if deg > 0 {
			if b > st.MaxCertBits {
				st.MaxCertBits = b
			}
			if b > st.MaxPortBits {
				st.MaxPortBits = b
			}
		}
		return
	}
	if len(certs) > deg {
		certs = certs[:deg]
	}
	for _, cert := range certs {
		b := cert.Len()
		st.TotalWireBits += int64(b)
		if b > st.MaxCertBits {
			st.MaxCertBits = b
		}
		if b > st.MaxPortBits {
			st.MaxPortBits = b
		}
	}
}

// Sequential is the allocation-amortized fast path: one goroutine, buffers
// reused across rounds. It backs Monte-Carlo estimation, monitors, and
// benchmarks.
type Sequential struct {
	sc scratch
	// store is the scheme's working storage and certificate arena, handed
	// to Certs and Decide as View.Scratch and reset at the start of every
	// single-round Round: a round's certificates live exactly one round.
	store core.LaneScratch
	// plan is the storage of the per-call label plan the estimator binds
	// plan-aware schemes to (core.Binder); see bindPlan.
	plan core.Plan
	// rng holds the coin stream of the node whose Certs runs, reseated per
	// node, so handing it to the scheme allocates nothing.
	rng prng.Rand
}

// NewSequential returns a sequential executor with empty scratch.
func NewSequential() *Sequential { return &Sequential{} }

// Name implements Executor.
func (e *Sequential) Name() string { return "sequential" }

// Clone implements Cloneable: a fresh sequential executor with empty scratch.
func (e *Sequential) Clone() Executor { return NewSequential() }

// Round implements Executor. This is the Sequential hot path: the plsvet
// hotalloc analyzer rejects allocating constructs in every //pls:hotpath
// function at the AST level, and the benchgate allocation band locks the
// measured zero-alloc steady state in CI — together they replace the old
// ad-hoc "stays 0-alloc" assertion comments. A randomized scheme gets
// e.store as View.Scratch, reset once per Round, so a scheme that builds
// its certificates there (the compiled one) runs allocation-free as well.
//
//pls:hotpath
func (e *Sequential) Round(s Scheme, c *graph.Config, labels []core.Label, seed uint64) ([]bool, Stats) {
	if t := Rounds(s); t > 1 {
		return e.multiRound(s.(MultiRound), t, c, labels, seed)
	}
	n := c.G.N()
	e.sc.ensure(c.G)
	e.store.Reset()
	st := Stats{Rounds: 1, MaxLabelBits: core.MaxBits(labels)}
	det, mult := s.Deterministic(), Multiplicity(s)
	if !det {
		root := prng.New(seed)
		for v := 0; v < n; v++ {
			e.rng = *root.Fork(uint64(v))
			e.sc.certs[v] = s.Certs(e.view(c, v), labels[v], &e.rng)
		}
	}
	for v := 0; v < n; v++ {
		sendStats(det, mult, c, labels, e.sc.certs[v], v, &st)
	}
	for v := 0; v < n; v++ {
		recv := e.sc.gather(det, c, labels, v)
		e.sc.votes[v] = s.Decide(e.view(c, v), labels[v], recv)
	}
	return e.sc.votes, st
}

// view is node v's view with the executor's scheme storage attached.
//
//pls:hotpath
func (e *Sequential) view(c *graph.Config, v int) core.View {
	view := core.ViewOf(c, v)
	view.Scratch = &e.store
	return view
}

// multiRound runs the t-round lockstep: per round, every node derives its
// round strings (from a per-round identical coin stream), the metered
// messages land in the receivers' windows, and each received string is
// appended to its directed edge's shard list; after the last round every
// node decides from the per-port concatenations. The scheme gets e.store
// as View.Scratch, reset once for the whole execution, so every round's
// strings stay valid until the decisions; the shard lists are allocated
// per call — the zero-alloc guarantee covers only the single-round path.
func (e *Sequential) multiRound(mr MultiRound, rounds int, c *graph.Config, labels []core.Label, seed uint64) ([]bool, Stats) {
	n := c.G.N()
	e.sc.ensure(c.G)
	e.store.Reset()
	st := Stats{Rounds: rounds, MaxLabelBits: core.MaxBits(labels)}
	mult := Multiplicity(mr)
	shards := newShardAcc(e.sc.offs[n], rounds)
	root := prng.New(seed)
	for r := 0; r < rounds; r++ {
		for v := 0; v < n; v++ {
			e.sc.certs[v] = mr.RoundCerts(r, e.view(c, v), labels[v], root.Fork(uint64(v)))
		}
		for v := 0; v < n; v++ {
			sendStats(false, mult, c, labels, e.sc.certs[v], v, &st)
			shards.gather(&e.sc, c, v)
		}
	}
	for v := 0; v < n; v++ {
		recv := shards.reassemble(&e.sc, v)
		e.sc.votes[v] = mr.Decide(e.view(c, v), labels[v], recv)
	}
	return e.sc.votes, st
}

// shardAcc accumulates, per directed edge, the strings received across the
// rounds of a multi-round execution, in round order.
type shardAcc [][]core.Cert

func newShardAcc(edges, rounds int) shardAcc {
	acc := make(shardAcc, edges)
	for i := range acc {
		acc[i] = make([]core.Cert, 0, rounds)
	}
	return acc
}

// gather appends the current round's messages arriving at node v (read
// from the senders' cert slices) to v's windows. Distinct receivers own
// disjoint windows, so concurrent gathers for distinct v are race-free.
func (acc shardAcc) gather(sc *scratch, c *graph.Config, v int) {
	recv := sc.gather(false, c, nil, v)
	base := sc.offs[v]
	for i, msg := range recv {
		acc[base+i] = append(acc[base+i], msg)
	}
}

// reassemble concatenates each of v's per-port shard lists, in round
// order, into v's receive window and returns it.
func (acc shardAcc) reassemble(sc *scratch, v int) []core.Cert {
	recv := sc.window(v)
	base := sc.offs[v]
	for i := range recv {
		recv[i] = bitstring.Concat(acc[base+i]...)
	}
	return recv
}

// Pool shards nodes across a fixed set of workers with no per-edge
// channels: a cert-generation phase, a barrier, and a decide phase. Votes
// and stats are identical to the other executors for the same seed because
// node v's coins are always prng.New(seed).Fork(v).
type Pool struct {
	workers int
	sc      scratch
	parts   []Stats // per-shard partial stats, merged after the decide phase
}

// NewPool returns a pool executor with the given worker count;
// workers <= 0 selects GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = goruntime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Name implements Executor.
func (e *Pool) Name() string { return "pool" }

// Clone implements Cloneable: same worker count, independent scratch.
func (e *Pool) Clone() Executor { return &Pool{workers: e.workers} }

// shardWorkers clamps the worker count to the node count and sizes the
// per-shard partial stats.
func (e *Pool) shardWorkers(n int) int {
	w := e.workers
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	if cap(e.parts) < w {
		e.parts = make([]Stats, w)
	}
	e.parts = e.parts[:w]
	return w
}

// mergeParts folds the per-shard partial stats into a final Stats.
func (e *Pool) mergeParts(st Stats) Stats {
	for _, p := range e.parts {
		st.Messages += p.Messages
		st.DistinctMessages += p.DistinctMessages
		st.TotalWireBits += p.TotalWireBits
		if p.MaxCertBits > st.MaxCertBits {
			st.MaxCertBits = p.MaxCertBits
		}
		if p.MaxPortBits > st.MaxPortBits {
			st.MaxPortBits = p.MaxPortBits
		}
	}
	return st
}

// Round implements Executor.
func (e *Pool) Round(s Scheme, c *graph.Config, labels []core.Label, seed uint64) ([]bool, Stats) {
	if t := Rounds(s); t > 1 {
		return e.multiRound(s.(MultiRound), t, c, labels, seed)
	}
	n := c.G.N()
	e.sc.ensure(c.G)
	w := e.shardWorkers(n)
	det, mult := s.Deterministic(), Multiplicity(s)

	var wg sync.WaitGroup
	if !det {
		wg.Add(w)
		for shard := 0; shard < w; shard++ {
			go func(shard int) {
				defer wg.Done()
				root := prng.New(seed)
				for v := shard * n / w; v < (shard+1)*n/w; v++ {
					e.sc.certs[v] = s.Certs(core.ViewOf(c, v), labels[v], root.Fork(uint64(v)))
				}
			}(shard)
		}
		wg.Wait() // barrier: deciding needs every node's certificates
	}

	wg.Add(w)
	for shard := 0; shard < w; shard++ {
		go func(shard int) {
			defer wg.Done()
			st := Stats{}
			for v := shard * n / w; v < (shard+1)*n/w; v++ {
				sendStats(det, mult, c, labels, e.sc.certs[v], v, &st)
				recv := e.sc.gather(det, c, labels, v)
				e.sc.votes[v] = s.Decide(core.ViewOf(c, v), labels[v], recv)
			}
			e.parts[shard] = st
		}(shard)
	}
	wg.Wait()

	return e.sc.votes, e.mergeParts(Stats{Rounds: 1, MaxLabelBits: core.MaxBits(labels)})
}

// multiRound runs the t-round lockstep with the pool's phase structure,
// once per round: a cert-generation phase, a barrier (gathering needs every
// sender's strings), then a metering + gather phase sharded by receiver
// (windows partition the directed edges, so shard appends are race-free).
// A final parallel phase reassembles and decides.
func (e *Pool) multiRound(mr MultiRound, rounds int, c *graph.Config, labels []core.Label, seed uint64) ([]bool, Stats) {
	n := c.G.N()
	e.sc.ensure(c.G)
	w := e.shardWorkers(n)
	mult := Multiplicity(mr)
	for i := range e.parts {
		e.parts[i] = Stats{}
	}
	shards := newShardAcc(e.sc.offs[n], rounds)

	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		wg.Add(w)
		for shard := 0; shard < w; shard++ {
			go func(shard, r int) {
				defer wg.Done()
				root := prng.New(seed)
				for v := shard * n / w; v < (shard+1)*n/w; v++ {
					e.sc.certs[v] = mr.RoundCerts(r, core.ViewOf(c, v), labels[v], root.Fork(uint64(v)))
				}
			}(shard, r)
		}
		wg.Wait() // barrier: gathering needs every node's round strings

		wg.Add(w)
		for shard := 0; shard < w; shard++ {
			go func(shard int) {
				defer wg.Done()
				st := &e.parts[shard]
				for v := shard * n / w; v < (shard+1)*n/w; v++ {
					sendStats(false, mult, c, labels, e.sc.certs[v], v, st)
					shards.gather(&e.sc, c, v)
				}
			}(shard)
		}
		wg.Wait() // barrier: the next round overwrites the cert slices
	}

	wg.Add(w)
	for shard := 0; shard < w; shard++ {
		go func(shard int) {
			defer wg.Done()
			for v := shard * n / w; v < (shard+1)*n/w; v++ {
				recv := shards.reassemble(&e.sc, v)
				e.sc.votes[v] = mr.Decide(core.ViewOf(c, v), labels[v], recv)
			}
		}(shard)
	}
	wg.Wait()

	return e.sc.votes, e.mergeParts(Stats{Rounds: rounds, MaxLabelBits: core.MaxBits(labels)})
}

// Goroutines is the model-faithful execution of §2.1: each node runs as its
// own goroutine and messages travel over one buffered channel per directed
// edge, so a verifier physically cannot read anything but its own state,
// its own label, and what arrived on its ports. Kept for fidelity tests;
// Sequential and Pool are the fast paths.
type Goroutines struct {
	sc       scratch
	certMax  []int
	wireSent []int64
}

// NewGoroutines returns the goroutine-per-node executor.
func NewGoroutines() *Goroutines { return &Goroutines{} }

// Name implements Executor.
func (e *Goroutines) Name() string { return "goroutines" }

// Clone implements Cloneable: a fresh goroutine-per-node executor.
func (e *Goroutines) Clone() Executor { return NewGoroutines() }

// ensureCounters sizes the per-node send counters.
func (e *Goroutines) ensureCounters(n int) {
	if cap(e.certMax) < n {
		e.certMax = make([]int, n)
		e.wireSent = make([]int64, n)
	}
	e.certMax = e.certMax[:n]
	e.wireSent = e.wireSent[:n]
}

// Round implements Executor.
func (e *Goroutines) Round(s Scheme, c *graph.Config, labels []core.Label, seed uint64) ([]bool, Stats) {
	if t := Rounds(s); t > 1 {
		return e.multiRound(s.(MultiRound), t, c, labels, seed)
	}
	n := c.G.N()
	e.sc.ensure(c.G)
	e.ensureCounters(n)
	in := buildChannels(c.G)
	det := s.Deterministic()
	root := prng.New(seed)

	var wg sync.WaitGroup
	wg.Add(n)
	for v := 0; v < n; v++ {
		go func(v int) {
			defer wg.Done()
			view := core.ViewOf(c, v)
			var certs []core.Cert
			if !det {
				certs = s.Certs(view, labels[v], root.Fork(uint64(v)))
			}
			maxCert, wire := 0, int64(0)
			for i, h := range c.G.AdjView(v) {
				var msg core.Cert
				if det {
					msg = labels[v]
				} else if i < len(certs) {
					msg = certs[i]
				}
				if b := msg.Len(); b > maxCert {
					maxCert = b
				}
				wire += int64(msg.Len())
				in[h.To][h.RevPort-1] <- msg
			}
			e.certMax[v], e.wireSent[v] = maxCert, wire
			recv := e.sc.window(v)
			for i := range recv {
				recv[i] = <-in[v][i]
			}
			e.sc.votes[v] = s.Decide(view, labels[v], recv)
		}(v)
	}
	wg.Wait()

	st := Stats{Rounds: 1, MaxLabelBits: core.MaxBits(labels)}
	mult := Multiplicity(s)
	for v := 0; v < n; v++ {
		st.Messages += c.G.Degree(v)
		st.DistinctMessages += distinctCount(det, mult, c.G.Degree(v))
		st.TotalWireBits += e.wireSent[v]
		// certMax[v] is the largest message v sent — the label for
		// deterministic schemes — so it feeds κ and the port maximum alike.
		if e.certMax[v] > st.MaxCertBits {
			st.MaxCertBits = e.certMax[v]
		}
		if e.certMax[v] > st.MaxPortBits {
			st.MaxPortBits = e.certMax[v]
		}
	}
	return e.sc.votes, st
}

// multiRound keeps the model-faithful shape over t rounds: every node runs
// as its own goroutine, alternating a send-all phase and a receive-all
// phase per round over the same one-channel-per-directed-edge fabric. The
// capacity-1 buffers cannot deadlock: the node at the minimum round has
// already had all its inputs sent and all its output channels drained (any
// neighbor past that round consumed them), so it always progresses.
func (e *Goroutines) multiRound(mr MultiRound, rounds int, c *graph.Config, labels []core.Label, seed uint64) ([]bool, Stats) {
	n := c.G.N()
	e.sc.ensure(c.G)
	e.ensureCounters(n)
	in := buildChannels(c.G)
	root := prng.New(seed)

	var wg sync.WaitGroup
	wg.Add(n)
	for v := 0; v < n; v++ {
		go func(v int) {
			defer wg.Done()
			view := core.ViewOf(c, v)
			acc := make([][]core.Cert, view.Deg)
			for i := range acc {
				acc[i] = make([]core.Cert, 0, rounds)
			}
			maxCert, wire := 0, int64(0)
			for r := 0; r < rounds; r++ {
				// The same coin stream every round: shards of one draw.
				certs := mr.RoundCerts(r, view, labels[v], root.Fork(uint64(v)))
				for i, h := range c.G.AdjView(v) {
					var msg core.Cert
					if i < len(certs) {
						msg = certs[i]
					}
					if b := msg.Len(); b > maxCert {
						maxCert = b
					}
					wire += int64(msg.Len())
					in[h.To][h.RevPort-1] <- msg
				}
				for i := range acc {
					acc[i] = append(acc[i], <-in[v][i])
				}
			}
			recv := e.sc.window(v)
			for i := range recv {
				recv[i] = bitstring.Concat(acc[i]...)
			}
			e.certMax[v], e.wireSent[v] = maxCert, wire
			e.sc.votes[v] = mr.Decide(view, labels[v], recv)
		}(v)
	}
	wg.Wait()

	st := Stats{Rounds: rounds, MaxLabelBits: core.MaxBits(labels)}
	mult := Multiplicity(mr)
	for v := 0; v < n; v++ {
		st.Messages += rounds * c.G.Degree(v)
		st.DistinctMessages += int64(rounds) * distinctCount(false, mult, c.G.Degree(v))
		st.TotalWireBits += e.wireSent[v]
		if e.certMax[v] > st.MaxCertBits {
			st.MaxCertBits = e.certMax[v]
		}
		if e.certMax[v] > st.MaxPortBits {
			st.MaxPortBits = e.certMax[v]
		}
	}
	return e.sc.votes, st
}

// buildChannels wires one buffered channel per directed edge;
// in[v][p-1] carries messages arriving at v on port p.
func buildChannels(g *graph.Graph) [][]chan bitstring.String {
	in := make([][]chan bitstring.String, g.N())
	for v := range in {
		in[v] = make([]chan bitstring.String, g.Degree(v))
		for i := range in[v] {
			in[v][i] = make(chan bitstring.String, 1)
		}
	}
	return in
}
