package main

import (
	"fmt"
	"runtime"
	"time"

	"rpls/internal/campaign"
	"rpls/internal/core"
	"rpls/internal/engine"
	"rpls/internal/experiments"
	"rpls/internal/graph"
	"rpls/internal/obs"
	"rpls/internal/schemes/spanningtree"
	"rpls/internal/schemes/uniform"
)

// Inputs of the two Estimate workloads; workloads.json records why.
const (
	lanesN        = 1 << 14
	lanesTrials   = 64
	uniformBytes  = 32
	monitorN      = 1024
	honestTrials  = 32
	detectTrials  = 64
	coinCycle     = 16 // coin seeds repeat with this period, so every Summary has a pin
	lanesSetups   = 5
	monitorSetups = 3
	// monitorSets is how many instance sets, each from its own derived
	// seed, monitor-detect cycles through, so that one run averages over
	// several instances rather than resting on one graph per scheme. It
	// divides coinCycle, so a pin key fixes both instance and coins.
	monitorSets = 16
	minOps      = 3
)

var monitorSchemes = []string{"spanningtree", "leader", "mst"}

// estCase is one scheme instance of an Estimate workload.
type estCase struct {
	name    string
	set     int // instance set: operation k uses the cases of set k % sets
	n       int
	scheme  engine.Scheme
	traced  engine.Scheme // scheme behind the counting wrapper
	legal   *graph.Config
	illegal *graph.Config // monitor-detect only: the legal labels' illegal twin
	labels  []core.Label
	maxBits int // largest label, for the field and bitstring layers

	exec       engine.Executor
	tracedExec engine.Executor
	rt         rplsTally
	et         execTally
}

// callKind is one kind of Estimate call a workload makes on every case.
type callKind struct {
	name   string
	trials int
	detect bool // verify the legal labels on the illegal twin, stopping at the first rejection
}

// estWorkload describes one Estimate workload.
type estWorkload struct {
	name  string
	kinds []callKind
	// An operation is one call of every kind on every case of one instance
	// set. With opIsDetect, op_p50_s is the median time an operation spends
	// in its detection calls (one detection sweep over the monitored
	// schemes); otherwise it is the median operation.
	opIsDetect bool
	batched    bool
	sets       int
}

// passResult is what one timed pass over the cases measured.
type passResult struct {
	ops       []time.Duration
	detectOps []time.Duration // per operation: time in its detection calls
	kindCalls map[string][]time.Duration
	caseCalls map[string][]time.Duration // honest calls, by case
	callWall  time.Duration              // time inside Estimate
	calls     int
	trials    int // Summary.Trials summed: trials completed
	caseTrial map[string]int
	allocB    uint64
	mallocs   uint64
	attempted int
	failed    int
	problems  []string // invariant violations
}

// instanceStride separates the derived seeds of instance sets.
const instanceStride = 1_000_003

// coinSeed is the WithSeed of operation k: trials of different k within a
// cycle never share coins, and the sequence repeats every coinCycle
// operations.
func coinSeed(seed uint64, k int) uint64 {
	return seed<<20 + uint64(k%coinCycle)*detectTrials
}

func runEstimateLanes(cfg runConfig) (*report, error) {
	w := estWorkload{
		name:    "estimate-lanes",
		kinds:   []callKind{{name: "honest", trials: lanesTrials}},
		batched: true,
		sets:    1,
	}
	return runEstimate(cfg, w, lanesSetups, func() ([]*estCase, time.Duration, time.Duration, error) {
		return setupLanes(cfg.seed)
	})
}

func runMonitorDetect(cfg runConfig) (*report, error) {
	w := estWorkload{
		name: "monitor-detect",
		kinds: []callKind{
			{name: "honest", trials: honestTrials},
			{name: "detect", trials: detectTrials, detect: true},
		},
		opIsDetect: true,
		sets:       monitorSets,
	}
	return runEstimate(cfg, w, monitorSetups, func() ([]*estCase, time.Duration, time.Duration, error) {
		var cases []*estCase
		var build, label time.Duration
		for set := 0; set < monitorSets; set++ {
			cs, b, l, err := setupMonitor(cfg.seed+uint64(set)*instanceStride, set)
			if err != nil {
				return nil, 0, 0, err
			}
			cases, build, label = append(cases, cs...), build+b, label+l
		}
		return cases, build, label, nil
	})
}

// setupLanes builds the two lane-aware instances at n = 2^14 and their
// honest labels, returning the instance-build and labelling times.
func setupLanes(seed uint64) ([]*estCase, time.Duration, time.Duration, error) {
	var build, label time.Duration
	mk := func(name string, r core.RPLS, gen func() *graph.Config) (*estCase, error) {
		t0 := obs.Clock()
		c := gen()
		t1 := obs.Clock()
		s := engine.FromRPLS(r)
		labels, err := s.Label(c)
		label += obs.Since(t1)
		build += time.Duration(t1 - t0)
		if err != nil {
			return nil, fmt.Errorf("label %s: %w", name, err)
		}
		return &estCase{name: name, n: c.G.N(), scheme: s, legal: c, labels: labels,
			maxBits: core.MaxBits(labels), exec: engine.NewBatched()}, nil
	}
	u, err := mk("uniform", uniform.NewRPLS(), func() *graph.Config {
		return experiments.BuildUniformConfig(lanesN, uniformBytes, seed)
	})
	if err != nil {
		return nil, 0, 0, err
	}
	t, err := mk("tree", core.Compile(spanningtree.NewPLS()), func() *graph.Config {
		return experiments.BuildTreeConfig(lanesN, seed)
	})
	if err != nil {
		return nil, 0, 0, err
	}
	return []*estCase{u, t}, build, label, nil
}

// setupMonitor builds the monitor instances on the randomconnected family:
// a legal configuration, its illegal twin, and honest labels per scheme.
func setupMonitor(seed uint64, set int) ([]*estCase, time.Duration, time.Duration, error) {
	var build, label time.Duration
	var cases []*estCase
	for _, name := range monitorSchemes {
		t0 := obs.Clock()
		legal, params, err := campaign.BuildLegal(name, campaign.FamilyAxis{Name: "randomconnected"}, monitorN, seed)
		if err != nil {
			return nil, 0, 0, err
		}
		illegal, err := campaign.IllegalTwin(name, legal, seed)
		if err != nil {
			return nil, 0, 0, err
		}
		s, err := campaign.BuildVariant(name, campaign.VariantRand, params)
		if err != nil {
			return nil, 0, 0, err
		}
		t1 := obs.Clock()
		labels, err := s.Label(legal)
		label += obs.Since(t1)
		build += time.Duration(t1 - t0)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("label %s: %w", name, err)
		}
		cases = append(cases, &estCase{name: name, set: set, n: legal.G.N(), scheme: s, legal: legal, illegal: illegal,
			labels: labels, maxBits: core.MaxBits(labels), exec: engine.NewSequential()})
	}
	return cases, build, label, nil
}

// runEstimate sets the workload up several times, then measures it for the
// budget (half of it untraced and half traced in a traced run).
func runEstimate(cfg runConfig, w estWorkload, setups int, setup func() ([]*estCase, time.Duration, time.Duration, error)) (*report, error) {
	rep := newReport()
	var setupT, buildT, labelT []time.Duration
	var cases []*estCase
	for i := 0; i < setups; i++ {
		t0 := obs.Clock()
		cs, b, l, err := setup()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupT = append(setupT, obs.Since(t0))
		buildT, labelT = append(buildT, b), append(labelT, l)
		cases = cs
	}
	for _, c := range cases {
		s, err := wrapScheme(c.scheme, &c.rt)
		if err != nil {
			return nil, err
		}
		c.traced, c.tracedExec = s, c.exec
		if seq, ok := c.exec.(*engine.Sequential); ok {
			c.tracedExec = wrapSequential(seq, &c.et)
		}
	}

	// Warm-up: one operation with the recorder on, which also observes the
	// lane width the Batched executor chose.
	obs.Reset()
	obs.SetEnabled(true)
	warm := estimatePass(cfg, w, cases, false, 0, 1)
	snap := obs.TakeSnapshot()
	obs.SetEnabled(false)
	obs.Reset()
	if w.batched {
		lanes, _ := snap.Histogram("engine.batched.lanes")
		rep.meta["lane_width"] = lanes.Max
	} else {
		rep.meta["lane_width"] = "none (Sequential)"
	}

	budget := cfg.budget
	if cfg.trace {
		budget /= 2
	}
	plain := estimatePass(cfg, w, cases, false, budget, minOps)
	rep.attempted, rep.failed = plain.attempted, plain.failed
	rep.problems = append(rep.problems, warm.problems...)
	rep.problems = append(rep.problems, plain.problems...)

	rep.e2e["items_per_s"] = float64(plain.trials) / plain.callWall.Seconds()
	rep.e2e["alloc_bytes_per_item"] = float64(plain.allocB) / float64(plain.trials)
	rep.e2e["setup_s"] = median(seconds(setupT))
	if w.opIsDetect {
		rep.e2e["op_p50_s"] = median(seconds(plain.detectOps))
	} else {
		rep.e2e["op_p50_s"] = median(seconds(plain.ops))
	}

	rep.note("trials_per_s", rep.e2e["items_per_s"], "trials/s")
	rep.timing("estimate", seconds(plain.kindCalls["honest"]))
	for _, c := range cases {
		if c.set == 0 {
			rep.timing("estimate."+c.name, seconds(plain.caseCalls[c.name]))
		}
	}
	if w.opIsDetect {
		rep.timing("detect", seconds(plain.kindCalls["detect"]))
		rep.timing("detect_sweep", seconds(plain.detectOps))
	}
	rep.note("alloc_bytes_per_trial", rep.e2e["alloc_bytes_per_item"], "B")
	rep.note("error_ratio", float64(plain.failed)/float64(plain.attempted), "ratio")
	rep.meta["ops"] = len(plain.ops)

	if cfg.trace {
		traceEstimate(cfg, w, cases, budget, plain, rep)
		rep.layer["graph.build_s"] = median(seconds(buildT))
		rep.layer["prover.label_s"] = median(seconds(labelT))
	}
	return rep, nil
}

// estimatePass runs operations until the budget is spent and at least
// minimum operations are done, checking every Summary as it goes.
func estimatePass(cfg runConfig, w estWorkload, cases []*estCase, traced bool, budget time.Duration, minimum int) passResult {
	res := passResult{kindCalls: map[string][]time.Duration{}, caseCalls: map[string][]time.Duration{}, caseTrial: map[string]int{}}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := obs.Clock()
	for k := 0; k < minimum || obs.Since(start) < budget; k++ {
		// Each operation starts from a collected heap, so one operation's
		// garbage is not charged to the next.
		runtime.GC()
		opStart := obs.Clock()
		var detect time.Duration
		for _, c := range cases {
			if c.set != k%w.sets {
				continue
			}
			for _, kind := range w.kinds {
				sum, d, err := estimateCall(cfg, c, kind, k, traced)
				res.attempted++
				res.calls++
				res.callWall += d
				res.kindCalls[kind.name] = append(res.kindCalls[kind.name], d)
				if kind.detect {
					detect += d
				} else {
					res.caseCalls[c.name] = append(res.caseCalls[c.name], d)
				}
				if err != nil {
					res.failed++
					res.problems = append(res.problems, fmt.Sprintf("%s/%s call %d: %v", c.name, kind.name, k, err))
					continue
				}
				res.trials += sum.Trials
				res.caseTrial[c.name] += sum.Trials
				if why := invalidSummary(kind, sum); why != "" {
					res.failed++
					res.problems = append(res.problems, fmt.Sprintf("%s/%s call %d: %s", c.name, kind.name, k, why))
				}
				cfg.digests.check(fmt.Sprintf("%s/%s/%s/%d", w.name, c.name, kind.name, k%coinCycle), hashJSON(sum))
			}
		}
		res.ops = append(res.ops, obs.Since(opStart))
		res.detectOps = append(res.detectOps, detect)
	}
	runtime.ReadMemStats(&m1)
	res.allocB = m1.TotalAlloc - m0.TotalAlloc
	res.mallocs = m1.Mallocs - m0.Mallocs
	return res
}

// estimateCall makes one Estimate call of the given kind for operation k.
func estimateCall(cfg runConfig, c *estCase, kind callKind, k int, traced bool) (engine.Summary, time.Duration, error) {
	s, exec, conf := c.scheme, c.exec, c.legal
	if traced {
		s, exec = c.traced, c.tracedExec
	}
	opts := []engine.Option{
		engine.WithExecutor(exec),
		engine.WithParallelism(1),
		engine.WithLabels(c.labels),
		engine.WithSeed(coinSeed(cfg.seed, k)),
		engine.WithTrials(kind.trials),
	}
	if kind.detect {
		conf = c.illegal
		opts = append(opts, engine.WithStopOnReject(true))
	}
	t0 := obs.Clock()
	sum, err := engine.Estimate(s, conf, opts...)
	return sum, obs.Since(t0), err
}

// invalidSummary checks the seed-independent invariants: an honest call
// accepts every trial of its budget, a detection call ends on a rejection.
func invalidSummary(kind callKind, sum engine.Summary) string {
	switch {
	case kind.detect && sum.Accepted >= sum.Trials:
		return fmt.Sprintf("detection accepted all %d trials", sum.Trials)
	case !kind.detect && (sum.Trials != kind.trials || sum.Accepted != sum.Trials):
		return fmt.Sprintf("honest call accepted %d of %d trials (budget %d)", sum.Accepted, sum.Trials, kind.trials)
	}
	return ""
}

// traceEstimate runs the traced pass and fills the per-layer metrics.
func traceEstimate(cfg runConfig, w estWorkload, cases []*estCase, budget time.Duration, plain passResult, rep *report) {
	obs.Reset()
	obs.SetEnabled(true)
	tr := estimatePass(cfg, w, cases, true, budget, minOps)
	snap := obs.TakeSnapshot()
	obs.SetEnabled(false)
	obs.Reset()
	rep.failed += tr.failed
	rep.attempted += tr.attempted
	rep.problems = append(rep.problems, tr.problems...)

	var certs, decide, certsL, decideL, nodeTrials, rounds, roundNanos int64
	computed := 0
	for _, c := range cases {
		certs += c.rt.certsNanos.Load()
		decide += c.rt.decideNanos.Load()
		certsL += c.rt.certsLanesNanos.Load()
		decideL += c.rt.decideLanesNanos.Load()
		nodeTrials += c.rt.nodeTrials.Load()
		rounds += c.et.rounds.Load()
		roundNanos += c.et.roundNanos.Load()
		// Trials computed for the case: every executor round, or, on the
		// Batched path with no early stop, every completed trial.
		caseComputed := int(c.et.rounds.Load())
		if w.batched {
			caseComputed = tr.caseTrial[c.name]
		}
		computed += caseComputed
		if got := c.rt.nodeTrials.Load(); got != int64(c.n*caseComputed) {
			rep.problem("%s: %d certificate generations for %d trials at n=%d; want n per trial", c.name, got, caseComputed, c.n)
		}
	}
	perTrial := func(ns int64) float64 { return time.Duration(ns).Seconds() / float64(computed) }
	rep.layer["schemes.certs_s_per_trial"] = perTrial(certs)
	rep.layer["schemes.decide_s_per_trial"] = perTrial(decide)
	rep.layer["schemes.calls_per_trial"] = float64(nodeTrials) / float64(computed)
	rep.layer["schemes.allocs_per_node"] = float64(tr.mallocs) / float64(nodeTrials)

	if w.batched {
		batches := float64(snap.Counter("engine.batched.batches"))
		batchH, _ := snap.Histogram("engine.batched.batch")
		lanes, _ := snap.Histogram("engine.batched.lanes")
		batchNanos := batchH.Sum
		rep.layer["schemes.certs_lanes_s_per_batch"] = time.Duration(certsL).Seconds() / batches
		rep.layer["schemes.decide_lanes_s_per_batch"] = time.Duration(decideL).Seconds() / batches
		rep.layer["engine.batched_self_s_per_batch"] = time.Duration(batchNanos-certsL-decideL).Seconds() / batches
		rep.layer["engine.lanes_per_batch"] = lanes.Mean
		rep.layer["engine.fold_s"] = (tr.callWall - time.Duration(batchNanos)).Seconds() / float64(tr.calls)
		rep.layer["engine.useful_trial_ratio"] = float64(tr.trials) / float64(lanes.Sum)
		fallback := snap.Counter("engine.batched.fallback")
		rep.layer["engine.batched_fallback"] = float64(fallback)
		if fallback != 0 {
			rep.problem("Batched fell back to per-trial rounds %d times", fallback)
		}
	} else {
		rep.layer["engine.round_s"] = time.Duration(roundNanos).Seconds() / float64(rounds)
		rep.layer["engine.exchange_self_s"] = time.Duration(roundNanos-certs-decide).Seconds() / float64(rounds)
		rep.layer["engine.fold_s"] = (tr.callWall - time.Duration(roundNanos)).Seconds() / float64(tr.calls)
		rep.layer["engine.useful_trial_ratio"] = float64(tr.trials) / float64(rounds)
	}
	// The layer splits above add up to the time inside Estimate; what is
	// left of the pass is the harness loop itself.
	rep.layer["unattributed_s"] = (sum(tr.ops) - tr.callWall).Seconds() / float64(len(tr.ops))
	rep.layer["trace_overhead_s"] = median(seconds(tr.ops)) - median(seconds(plain.ops))

	maxBits := 0
	for _, c := range cases {
		maxBits = max(maxBits, c.maxBits)
	}
	measureCodecLayers(cfg.seed, maxBits, rep)
	rep.meta["label_bits"] = maxBits
}
