package engine_test

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"rpls/internal/bitstring"
	"rpls/internal/core"
	"rpls/internal/engine"
	"rpls/internal/experiments"
	"rpls/internal/graph"
	"rpls/internal/prng"
	"rpls/internal/schemes/spanningtree"
)

// The per-call label plan (core.Plan) must be invisible in every result:
// the estimator binds a compiled scheme to its fixed configuration and
// labels, and the bound scheme answers bit for bit what the unbound one
// does. These tests hold the bound runs to the same scheme with the plan
// interface hidden, and pin the lazy verdict memo.

// compiledScheme is the method set of a compiled scheme apart from Bind.
type compiledScheme interface {
	core.LaneRPLS
	core.CappedRPLS
}

// planHidden forwards every method of a compiled scheme except Bind, so
// the estimator runs it unbound: the lane path and the native cap route
// stay exactly as they are for the bound scheme.
type planHidden struct{ compiledScheme }

// unbound returns s with the plan interface hidden.
func unbound(t *testing.T, s engine.Scheme) engine.Scheme {
	t.Helper()
	r, _ := engine.AsRPLS(s)
	cs, ok := r.(compiledScheme)
	if !ok {
		t.Fatalf("%s: compiled scheme lost its lane or cap interface", s.Name())
	}
	if isBinder(planHidden{cs}) {
		t.Fatal("planHidden exposes core.Binder")
	}
	return engine.FromRPLS(planHidden{cs})
}

func isBinder(r core.RPLS) bool {
	_, ok := r.(core.Binder)
	return ok
}

// adversarialLabels returns the label sets the bound and unbound runs are
// compared on: honest, every label truncated, every label extended, and
// uniformly random labels.
func adversarialLabels(honest []core.Label, seed uint64) map[string][]core.Label {
	truncated := make([]core.Label, len(honest))
	extended := make([]core.Label, len(honest))
	for v, l := range honest {
		truncated[v] = l.Truncate(l.Len() - 1 - v%3)
		extended[v] = bitstring.Concat(l, bitstring.FromBits([]byte{byte(v & 1), 1}))
	}
	return map[string][]core.Label{
		"honest":    honest,
		"truncated": truncated,
		"extended":  extended,
		"random":    engine.RandomLabels(prng.New(seed), len(honest), core.MaxBits(honest)),
	}
}

// TestBoundMatchesUnbound runs every compiled registry scheme through
// Estimate and Soundness bound and unbound, on Sequential and Batched, at
// multiplicity 0 (unicast), 1 and 2 and at parallelism 1 and 2, with
// honest labels on the legal instance and its illegal twin and with
// truncated, extended and random labels; every Summary must be identical.
func TestBoundMatchesUnbound(t *testing.T) {
	compiled := 0
	for _, e := range engine.Entries() {
		if e.Rand == nil {
			continue
		}
		build, ok := conformanceFixtures[e.Name]
		if !ok {
			t.Fatalf("no conformance fixture for %q", e.Name)
		}
		fx, err := build()
		if err != nil {
			t.Fatalf("%s fixture: %v", e.Name, err)
		}
		s := e.Rand(fx.params)
		if r, _ := engine.AsRPLS(s); !isBinder(r) {
			continue
		}
		compiled++
		hidden := unbound(t, s)
		honest, err := s.Label(fx.legal)
		if err != nil {
			t.Fatalf("%s: label: %v", e.Name, err)
		}
		type instance struct {
			cfg    *graph.Config
			labels []core.Label
		}
		instances := map[string]instance{}
		for name, labels := range adversarialLabels(honest, 31) {
			instances[name] = instance{fx.legal, labels}
		}
		if fx.illegal.G.N() == fx.legal.G.N() {
			instances["illegal-twin"] = instance{fx.illegal, honest}
		}
		for _, exec := range []string{"sequential", "batched"} {
			for _, m := range []int{0, 1, 2} {
				for _, par := range []int{1, 2} {
					opts := func() []engine.Option {
						ex := engine.Executor(engine.NewSequential())
						if exec == "batched" {
							ex = engine.NewBatched()
						}
						return []engine.Option{engine.WithExecutor(ex), engine.WithParallelism(par),
							engine.WithMultiplicity(m), engine.WithTrials(24), engine.WithSeed(7)}
					}
					tag := fmt.Sprintf("%s/%s/m=%d/p=%d", e.Name, exec, m, par)
					for name, in := range instances {
						got, err := engine.Estimate(s, in.cfg, append(opts(), engine.WithLabels(in.labels))...)
						if err != nil {
							t.Fatalf("%s/%s: %v", tag, name, err)
						}
						want, err := engine.Estimate(hidden, in.cfg, append(opts(), engine.WithLabels(in.labels))...)
						if err != nil {
							t.Fatalf("%s/%s: %v", tag, name, err)
						}
						if got != want {
							t.Errorf("%s/%s: bound %+v, unbound %+v", tag, name, got, want)
						}
					}
					got, err := engine.Soundness(s, fx.legal, fx.illegal, append(opts(), engine.WithAssignments(3))...)
					if err != nil {
						t.Fatalf("%s soundness: %v", tag, err)
					}
					want, err := engine.Soundness(hidden, fx.legal, fx.illegal, append(opts(), engine.WithAssignments(3))...)
					if err != nil {
						t.Fatalf("%s soundness: %v", tag, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s soundness: bound %+v, unbound %+v", tag, got, want)
					}
				}
			}
		}
	}
	if compiled < 5 {
		t.Fatalf("only %d compiled registry schemes found", compiled)
	}
}

// countingPLS wraps a deterministic scheme and counts Verify calls per node.
type countingPLS struct {
	core.PLS
	calls []atomic.Int64
}

func (c *countingPLS) Verify(view core.View, own core.Label, nbrs []core.Label) bool {
	c.calls[view.Node].Add(1)
	return c.PLS.Verify(view, own, nbrs)
}

// TestPlanVerdictMemo pins the lazy verdict: within one bound Estimate the
// inner Verify runs at most once per node — exactly once for a node whose
// fingerprints always pass — and never for a node that rejects on its
// fingerprints in every trial: here the malformed node, which sends empty
// certificates, and each of its neighbours, which cannot parse them. Run
// it under -race: the parallel workers share the memo.
func TestPlanVerdictMemo(t *testing.T) {
	const n, bad = 64, 5
	cfg := experiments.BuildTreeConfig(n, 3)
	inner := &countingPLS{PLS: spanningtree.NewPLS(), calls: make([]atomic.Int64, n)}
	s := engine.FromRPLS(core.Compile(inner))
	labels, err := s.Label(cfg)
	if err != nil {
		t.Fatal(err)
	}
	labels[bad] = core.Label{}
	never := map[int]bool{bad: true}
	for _, h := range cfg.G.AdjView(bad) {
		never[h.To] = true
	}
	for _, ex := range []engine.Executor{engine.NewSequential(), engine.NewBatched()} {
		for _, par := range []int{1, 2} {
			for call := 0; call < 2; call++ {
				for v := range inner.calls {
					inner.calls[v].Store(0)
				}
				sum, err := engine.Estimate(s, cfg, engine.WithLabels(labels), engine.WithExecutor(ex),
					engine.WithParallelism(par), engine.WithTrials(40), engine.WithSeed(uint64(call)))
				if err != nil {
					t.Fatal(err)
				}
				if sum.Accepted != 0 {
					t.Fatalf("%s p=%d: a malformed label was accepted %d times", ex.Name(), par, sum.Accepted)
				}
				for v := range inner.calls {
					got, want := inner.calls[v].Load(), int64(1)
					if never[v] {
						want = 0
					}
					if got != want {
						t.Errorf("%s p=%d call %d: node %d ran the inner Verify %d times, want %d", ex.Name(), par, call, v, got, want)
					}
				}
			}
		}
	}
}
