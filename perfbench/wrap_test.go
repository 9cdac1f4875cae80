package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rpls/internal/core"
	"rpls/internal/engine"
	"rpls/internal/experiments"
	"rpls/internal/schemes/coloring"
	"rpls/internal/schemes/leader"
	"rpls/internal/schemes/uniform"
)

const wrapN, wrapTrials = 64, 20

// estimateBoth runs the same Estimate on the bare and the wrapped scheme
// and requires identical Summaries.
func estimateBoth(t *testing.T, bare, wrapped engine.Scheme, bareExec, wrappedExec engine.Executor, parallel int) engine.Summary {
	t.Helper()
	cfg := experiments.BuildUniformConfig(wrapN, 8, 5)
	labels, err := bare.Label(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(s engine.Scheme, e engine.Executor) engine.Summary {
		sum, err := engine.Estimate(s, cfg, engine.WithExecutor(e), engine.WithParallelism(parallel),
			engine.WithLabels(labels), engine.WithSeed(9), engine.WithTrials(wrapTrials))
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	want, got := run(bare, bareExec), run(wrapped, wrappedExec)
	if got != want {
		t.Fatalf("wrapped Summary %+v, bare %+v", got, want)
	}
	return got
}

func TestSequentialWrappersCountEveryCall(t *testing.T) {
	for _, parallel := range []int{1, 2} {
		var rt rplsTally
		var et execTally
		bare := engine.FromRPLS(uniform.NewRPLS())
		wrapped, err := wrapScheme(bare, &rt)
		if err != nil {
			t.Fatal(err)
		}
		exec := wrapSequential(engine.NewSequential(), &et)
		if _, ok := engine.Executor(exec).(engine.Cloneable); !ok {
			t.Fatal("wrapped Sequential is not Cloneable")
		}
		estimateBoth(t, bare, wrapped, engine.NewSequential(), exec, parallel)
		if got := et.rounds.Load(); got != wrapTrials {
			t.Errorf("p=%d: %d rounds counted, want %d", parallel, got, wrapTrials)
		}
		for name, got := range map[string]int64{
			"Certs":      rt.certsCalls.Load(),
			"Decide":     rt.decideCalls.Load(),
			"nodeTrials": rt.nodeTrials.Load(),
		} {
			if got != wrapN*wrapTrials {
				t.Errorf("p=%d: %s counted %d, want n×trials = %d", parallel, name, got, wrapN*wrapTrials)
			}
		}
		if rt.certsLanesCalls.Load() != 0 {
			t.Errorf("p=%d: Sequential reached CertsLanes", parallel)
		}
		if et.roundNanos.Load() < rt.certsNanos.Load()+rt.decideNanos.Load() {
			t.Errorf("p=%d: round time below certs+decide time", parallel)
		}
	}
}

func TestLaneWrapperKeepsTheBatchedPath(t *testing.T) {
	var rt rplsTally
	bare := engine.FromRPLS(uniform.NewRPLS())
	wrapped, err := wrapScheme(bare, &rt)
	if err != nil {
		t.Fatal(err)
	}
	inner, _ := engine.AsRPLS(wrapped)
	if _, ok := inner.(core.LaneRPLS); !ok {
		t.Fatal("wrapper hides core.LaneRPLS from a lane-aware scheme")
	}
	estimateBoth(t, bare, wrapped, engine.NewBatched(), engine.NewBatched(), 1)
	if got := rt.nodeTrials.Load(); got != wrapN*wrapTrials {
		t.Errorf("node-trials %d, want n×trials = %d", got, wrapN*wrapTrials)
	}
	if got := rt.certsLanesCalls.Load(); got != wrapN {
		t.Errorf("CertsLanes called %d times, want once per node for one %d-lane batch (%d)", got, wrapTrials, wrapN)
	}
	if rt.certsCalls.Load() != 0 || rt.decideCalls.Load() != 0 {
		t.Errorf("Batched fell back to per-node Certs/Decide (%d, %d calls)", rt.certsCalls.Load(), rt.decideCalls.Load())
	}
}

func TestWrapperOfNonLaneSchemeIsNotLaneAware(t *testing.T) {
	var rt rplsTally
	if _, ok := wrapRPLS(coloring.NewRPLS(3), &rt).(core.LaneRPLS); ok {
		t.Fatal("wrapper of a lane-unaware scheme claims core.LaneRPLS")
	}
	if _, err := wrapScheme(engine.FromPLS(leader.NewPLS()), &rt); err == nil {
		t.Fatal("wrapScheme accepted a deterministic scheme")
	}
}

func TestTransportCountsRequestsAndFailures(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/bad") {
			http.Error(w, "no", http.StatusInternalServerError)
		}
	}))
	defer srv.Close()
	tr := newCountingTransport(http.DefaultTransport)
	client := &http.Client{Transport: tr}
	for _, p := range []string{"/v1/ok", "/v1/ok", "/v1/bad", "/v1/ok"} {
		resp, err := client.Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if got := len(tr.path("/v1/ok")); got != 3 {
		t.Errorf("/v1/ok counted %d times, want 3", got)
	}
	if got := len(tr.path("/v1/bad")); got != 1 {
		t.Errorf("/v1/bad counted %d times, want 1", got)
	}
	if got := tr.failures(); got != 1 {
		t.Errorf("%d failures, want 1", got)
	}
}
