package engine_test

import (
	"testing"

	"rpls/internal/core"
	"rpls/internal/engine"
	"rpls/internal/experiments"
	"rpls/internal/graph"
	"rpls/internal/prng"
	"rpls/internal/schemes/spanningtree"
)

// The evaluation memo of a bound compiled scheme lives in the executor's
// scratch across batches and calls (see core.Plan). These tests drive one
// warm executor through batch widths and label vectors that change from
// call to call, and hold every Summary to the unbound scheme on a fresh
// executor.

// memoInstance is a configuration with a label vector to estimate on.
type memoInstance struct {
	name   string
	cfg    *graph.Config
	labels []core.Label
}

// memoInstances returns a legal spanning-tree configuration with its
// honest compiled labels, the same graph under other IDs with its own
// honest labels, a mix of the two (every third node labelled for the other
// IDs, so some replicas differ from their senders' labels), and the honest
// labels on an illegal twin with a second root.
func memoInstances(t *testing.T, s engine.Scheme, n int) []memoInstance {
	t.Helper()
	a := experiments.BuildTreeConfig(n, 4)
	b := a.Clone()
	b.AssignRandomIDs(prng.New(99))
	labelsA, err := s.Label(a)
	if err != nil {
		t.Fatal(err)
	}
	labelsB, err := s.Label(b)
	if err != nil {
		t.Fatal(err)
	}
	mixed := append([]core.Label(nil), labelsA...)
	for v := 0; v < n; v += 3 {
		mixed[v] = labelsB[v]
	}
	illegal := a.Clone()
	illegal.States[n/2].Parent = 0
	return []memoInstance{
		{"A", a, labelsA},
		{"B", b, labelsB},
		{"mixed", a, mixed},
		{"illegal", illegal, labelsA},
	}
}

// memoEstimate runs one Estimate of trials trials at seed on exec.
func memoEstimate(t *testing.T, s engine.Scheme, in memoInstance, exec engine.Executor, trials int, seed uint64) engine.Summary {
	t.Helper()
	sum, err := engine.Estimate(s, in.cfg, engine.WithLabels(in.labels), engine.WithExecutor(exec),
		engine.WithParallelism(1), engine.WithTrials(trials), engine.WithSeed(seed))
	if err != nil {
		t.Fatalf("%s: %v", in.name, err)
	}
	return sum
}

// TestMemoBatchWidths runs batches of 42, 22 and again 42 lanes through one
// Batched executor on every instance: a narrower batch leaves the wider
// lanes' entries behind, and the memo layout must not depend on the width.
// Each Summary equals the unbound scheme's on a fresh executor, and the
// two 42-lane calls at one seed are identical.
func TestMemoBatchWidths(t *testing.T) {
	s := engine.FromRPLS(core.Compile(spanningtree.NewPLS()))
	hidden := unbound(t, s)
	for _, in := range memoInstances(t, s, 96) {
		exec := engine.NewBatched()
		var first engine.Summary
		for call, trials := range []int{42, 22, 42} {
			seed := uint64(100)
			if trials == 22 {
				seed = 300
			}
			got := memoEstimate(t, s, in, exec, trials, seed)
			want := memoEstimate(t, hidden, in, engine.NewBatched(), trials, seed)
			if got != want {
				t.Fatalf("%s call %d (%d lanes): warm bound %+v, fresh unbound %+v", in.name, call, trials, got, want)
			}
			if call == 0 {
				first = got
			} else if trials == 42 && got != first {
				t.Fatalf("%s: the second 42-lane call %+v differs from the first %+v", in.name, got, first)
			}
		}
	}
}

// TestMemoRebindWarmExecutor rebinds one warm executor of each kind to
// every instance in turn, twice round: each call's memo must start empty
// for its own labels, whatever the previous call left in it.
func TestMemoRebindWarmExecutor(t *testing.T) {
	s := engine.FromRPLS(core.Compile(spanningtree.NewPLS()))
	hidden := unbound(t, s)
	instances := memoInstances(t, s, 64)
	for _, mk := range []func() engine.Executor{
		func() engine.Executor { return engine.NewSequential() },
		func() engine.Executor { return engine.NewBatched() },
	} {
		exec := mk()
		for round := 0; round < 2; round++ {
			for i, in := range instances {
				seed := uint64(10*round + i)
				got := memoEstimate(t, s, in, exec, 24, seed)
				want := memoEstimate(t, hidden, in, mk(), 24, seed)
				if got != want {
					t.Fatalf("%s round %d %s: warm bound %+v, fresh unbound %+v", exec.Name(), round, in.name, got, want)
				}
				if in.name == "mixed" && got.Accepted == got.Trials {
					t.Fatalf("%s: mixed labels accepted every trial", exec.Name())
				}
			}
		}
	}
}
