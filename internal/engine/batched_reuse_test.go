package engine_test

import (
	"fmt"
	"testing"

	"rpls/internal/core"
	"rpls/internal/engine"
	"rpls/internal/experiments"
	"rpls/internal/graph"
	"rpls/internal/obs"
	"rpls/internal/schemes/spanningtree"
	"rpls/internal/schemes/uniform"
)

// reuseInstance is one scheme on one configuration with fixed labels.
type reuseInstance struct {
	name   string
	scheme engine.Scheme
	cfg    *graph.Config
	labels []core.Label
}

func newReuseInstance(t *testing.T, name string, r core.RPLS, labelCfg, runCfg *graph.Config) reuseInstance {
	t.Helper()
	s := engine.FromRPLS(r)
	labels, err := s.Label(labelCfg)
	if err != nil {
		t.Fatalf("%s: Label: %v", name, err)
	}
	return reuseInstance{name: name, scheme: s, cfg: runCfg, labels: labels}
}

// TestBatchedReuseMatchesFresh drives one Batched executor through a
// sequence of Estimate calls that changes graph, scheme, lane width,
// trial count, seed, multiplicity cap and parallelism from call to call.
// The executor keeps its scratch and certificate arena across calls, so
// every Summary must equal both a fresh Batched executor's and the
// Sequential reference's: a certificate of one batch that survived into
// the next, or storage shared between workers, would change votes or bit
// counts. The illegal instances make acceptance depend on the coins of
// every trial; the large uniform graph narrows the lane width below 64
// (plane budget), and odd trial counts leave a ragged last batch.
func TestBatchedReuseMatchesFresh(t *testing.T) {
	small := experiments.BuildUniformConfig(40, 32, 3)
	// One flipped payload bit at a minimum-degree node: over GF(2) each
	// check of it passes with probability 1/2, so acceptance is a coin
	// flip per trial and every trial's certificates show in the Summary.
	broken := experiments.BuildUniformConfig(40, 32, 3)
	leaf := 0
	for v := range broken.States {
		if broken.G.Degree(v) < broken.G.Degree(leaf) {
			leaf = v
		}
	}
	broken.States[leaf].Data = append([]byte(nil), broken.States[leaf].Data...)
	broken.States[leaf].Data[0] ^= 0x10
	wide := experiments.BuildUniformConfig(11000, 4, 5) // 33k slots: 63 lanes
	tree := experiments.BuildTreeConfig(300, 9)

	insts := []reuseInstance{
		newReuseInstance(t, "uniform", uniform.NewRPLS(), small, small),
		newReuseInstance(t, "uniform-illegal", uniform.NewRPLS(), small, broken),
		newReuseInstance(t, "gf2-illegal", uniform.NewTruncatedRPLS(2), small, broken),
		newReuseInstance(t, "uniform-narrow", uniform.NewRPLS(), wide, wide),
		newReuseInstance(t, "tree", core.Compile(spanningtree.NewPLS()), tree, tree),
		newReuseInstance(t, "boost4", core.Boost(uniform.NewRPLS(), 4), small, small),
		newReuseInstance(t, "boost2-gf2-illegal", core.Boost(uniform.NewTruncatedRPLS(2), 2), small, broken),
	}
	const narrow, mixed, mixedBoost = 3, 2, 6 // the narrowed instance; the coin-flip instances
	steps := []struct {
		inst     int
		mult     int
		parallel int
		seed     uint64
		trials   int
	}{
		{inst: narrow, seed: 1, trials: 70}, // big graph first: arena at its largest
		{inst: 0, seed: 2, trials: 64},
		{inst: 1, seed: 3, trials: 100},
		{inst: 4, seed: 4, trials: 129},
		{inst: mixed, seed: 5, trials: 77},
		{inst: 5, mult: 1, seed: 6, trials: 65},
		{inst: mixedBoost, mult: 2, seed: 7, trials: 90},
		{inst: 5, mult: 2, seed: 8, trials: 3},
		{inst: mixedBoost, mult: 1, seed: 9, trials: 64},
		{inst: narrow, seed: 10, trials: 64},
		{inst: mixed, seed: 11, trials: 200, parallel: 2},
		{inst: 4, seed: 12, trials: 1},
		{inst: mixedBoost, seed: 13, trials: 150, parallel: 2},
		{inst: mixed, seed: 14, trials: 63},
	}
	reused := engine.NewBatched()
	for k, st := range steps {
		in := insts[st.inst]
		name := fmt.Sprintf("step%d/%s/m=%d/seed=%d/trials=%d/par=%d", k, in.name, st.mult, st.seed, st.trials, max(st.parallel, 1))
		estimate := func(exec engine.Executor) engine.Summary {
			sum, err := engine.Estimate(in.scheme, in.cfg, engine.WithLabels(in.labels),
				engine.WithTrials(st.trials), engine.WithSeed(st.seed),
				engine.WithMultiplicity(st.mult), engine.WithExecutor(exec),
				engine.WithParallelism(max(st.parallel, 1)))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return sum
		}
		// The lane route must be the one under test, at the intended width.
		obs.Reset()
		obs.SetEnabled(true)
		got := estimate(reused)
		snap := obs.TakeSnapshot()
		obs.SetEnabled(false)
		obs.Reset()
		if fb := snap.Counter("engine.batched.fallback"); fb != 0 {
			t.Fatalf("%s: %d batched fallbacks; the lane path must run", name, fb)
		}
		if narrowed := snap.Counter("engine.batched.narrowed") != 0; narrowed != (st.inst == narrow) {
			t.Fatalf("%s: lane width narrowed = %v", name, narrowed)
		}
		if (st.inst == mixed || st.inst == mixedBoost) && (got.Accepted == 0 || got.Accepted == got.Trials) {
			t.Fatalf("%s: accepted %d of %d trials; the instance must mix outcomes", name, got.Accepted, got.Trials)
		}
		if fresh := estimate(engine.NewBatched()); got != fresh {
			t.Fatalf("%s: reused Batched %+v, fresh Batched %+v", name, got, fresh)
		}
		if seq := estimate(engine.NewSequential()); got != seq {
			t.Fatalf("%s: reused Batched %+v, Sequential %+v", name, got, seq)
		}
	}
}
