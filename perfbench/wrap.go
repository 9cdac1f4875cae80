package main

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rpls/internal/core"
	"rpls/internal/engine"
	"rpls/internal/graph"
	"rpls/internal/obs"
	"rpls/internal/prng"
)

// The traced run's wrappers. Each one forwards to the wrapped value and
// adds only a call count and the time spent inside the call, so the code
// path under the wrapper is the one the untraced run takes:
//
//   - the RPLS wrapper implements core.LaneRPLS exactly when the wrapped
//     scheme does, so the Batched executor still takes its lane path;
//   - the executor wrapper accepts only *engine.Sequential and forwards
//     engine.Cloneable. *engine.Batched is never wrapped: the estimator
//     type-asserts it to hand over whole trial ranges, and a wrapper would
//     silently turn every batch into per-trial rounds.
//
// The benchmark never runs a scheme under a multiplicity cap, so hiding
// core.CappedRPLS behind the RPLS wrapper cannot change the path either.

// rplsTally accumulates the scheme layer's calls and busy time. Fields are
// atomic because a cloned executor may call the scheme from another worker.
type rplsTally struct {
	certsCalls, decideCalls           atomic.Int64
	certsNanos, decideNanos           atomic.Int64
	certsLanesCalls, decideLanesCalls atomic.Int64
	certsLanesNanos, decideLanesNanos atomic.Int64
	// nodeTrials counts certificate generations of one node for one trial:
	// one per Certs call, one per lane of a CertsLanes call.
	nodeTrials atomic.Int64
}

// countingRPLS times Certs and Decide of a wrapped scheme.
type countingRPLS struct {
	core.RPLS
	t *rplsTally
}

func (c countingRPLS) Certs(view core.View, own core.Label, rng *prng.Rand) []core.Cert {
	t0 := obs.Clock()
	out := c.RPLS.Certs(view, own, rng)
	c.t.certsNanos.Add(int64(obs.Since(t0)))
	c.t.certsCalls.Add(1)
	c.t.nodeTrials.Add(1)
	return out
}

func (c countingRPLS) Decide(view core.View, own core.Label, received []core.Cert) bool {
	t0 := obs.Clock()
	ok := c.RPLS.Decide(view, own, received)
	c.t.decideNanos.Add(int64(obs.Since(t0)))
	c.t.decideCalls.Add(1)
	return ok
}

// countingLaneRPLS is countingRPLS for a lane-aware scheme: it also
// forwards and times CertsLanes and DecideLanes.
type countingLaneRPLS struct {
	countingRPLS
	lane core.LaneRPLS
}

func (c countingLaneRPLS) CertsLanes(view core.View, own core.Label, rngs []*prng.Rand, out [][]core.Cert) {
	t0 := obs.Clock()
	c.lane.CertsLanes(view, own, rngs, out)
	c.t.certsLanesNanos.Add(int64(obs.Since(t0)))
	c.t.certsLanesCalls.Add(1)
	c.t.nodeTrials.Add(int64(len(rngs)))
}

func (c countingLaneRPLS) DecideLanes(view core.View, own core.Label, recv [][]core.Cert) uint64 {
	t0 := obs.Clock()
	mask := c.lane.DecideLanes(view, own, recv)
	c.t.decideLanesNanos.Add(int64(obs.Since(t0)))
	c.t.decideLanesCalls.Add(1)
	return mask
}

// wrapRPLS returns a counting wrapper around r that is a core.LaneRPLS
// exactly when r is one.
func wrapRPLS(r core.RPLS, t *rplsTally) core.RPLS {
	base := countingRPLS{RPLS: r, t: t}
	if lr, ok := r.(core.LaneRPLS); ok {
		return countingLaneRPLS{countingRPLS: base, lane: lr}
	}
	return base
}

// wrapScheme wraps the randomized scheme behind s and checks that the
// engine sees the wrapper exactly as it sees s: same coin-freeness, same
// round count, and lane support on both or on neither.
func wrapScheme(s engine.Scheme, t *rplsTally) (engine.Scheme, error) {
	r, ok := engine.AsRPLS(s)
	if !ok {
		return nil, fmt.Errorf("scheme %s is not a single-round randomized scheme", s.Name())
	}
	w := engine.FromRPLS(wrapRPLS(r, t))
	_, laneIn := r.(core.LaneRPLS)
	wr, _ := engine.AsRPLS(w)
	_, laneOut := wr.(core.LaneRPLS)
	if engine.IsCoinFree(w) != engine.IsCoinFree(s) || engine.Rounds(w) != engine.Rounds(s) || laneIn != laneOut {
		return nil, fmt.Errorf("wrapping scheme %s changes the engine's view of it", s.Name())
	}
	return w, nil
}

// execTally accumulates the executor layer's rounds and busy time.
type execTally struct {
	rounds     atomic.Int64
	roundNanos atomic.Int64
}

// countingSequential times Round of a Sequential executor.
type countingSequential struct {
	inner engine.Executor
	t     *execTally
}

// wrapSequential wraps a Sequential executor; see the note above on why
// Batched is never wrapped.
func wrapSequential(seq *engine.Sequential, t *execTally) countingSequential {
	return countingSequential{inner: seq, t: t}
}

func (e countingSequential) Name() string { return e.inner.Name() }

func (e countingSequential) Round(s engine.Scheme, c *graph.Config, labels []core.Label, seed uint64) ([]bool, engine.Stats) {
	t0 := obs.Clock()
	votes, st := e.inner.Round(s, c, labels, seed)
	e.t.roundNanos.Add(int64(obs.Since(t0)))
	e.t.rounds.Add(1)
	return votes, st
}

// Clone implements engine.Cloneable, so the estimator shards a wrapped
// executor exactly as it would shard the bare one.
func (e countingSequential) Clone() engine.Executor {
	return countingSequential{inner: e.inner.(engine.Cloneable).Clone(), t: e.t}
}

// countingTransport records the round-trip time of every fabric request by
// URL path and counts the requests that got no 2xx response.
type countingTransport struct {
	inner http.RoundTripper

	mu     sync.Mutex
	rtts   map[string][]time.Duration
	non2xx int
}

func newCountingTransport(inner http.RoundTripper) *countingTransport {
	return &countingTransport{inner: inner, rtts: map[string][]time.Duration{}}
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := obs.Clock()
	resp, err := t.inner.RoundTrip(req)
	d := obs.Since(t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rtts[req.URL.Path] = append(t.rtts[req.URL.Path], d)
	if err != nil || resp.StatusCode < 200 || resp.StatusCode > 299 {
		t.non2xx++
	}
	return resp, err
}

// path returns a copy of the round-trip times recorded for one URL path.
func (t *countingTransport) path(p string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]time.Duration(nil), t.rtts[p]...)
}

// failures returns the number of non-2xx responses.
func (t *countingTransport) failures() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.non2xx
}
