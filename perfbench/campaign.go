package main

import (
	"context"
	_ "embed"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"rpls/internal/campaign"
	"rpls/internal/campaign/fabric"
	"rpls/internal/obs"
)

// smokeSpec is a copy of examples/campaign/smoke.json: 972 cells at n = 12.
// Its seed axis is replaced by a seed derived from the run's seed.
//
//go:embed smoke.json
var smokeSpec []byte

// The in-process and fabric drivers both run with two workers: the
// benchmark host has two CPUs. The fabric options are those of plscampaign
// serve with its default lease size and window (8-cell leases, a window of
// 4 leases) and -heartbeat 250ms, so a 1 s TTL. With the default 3 s
// heartbeat every window-full back-off sleeps 3 s, and whether a campaign
// hits two or three of them moved its wall time by a quarter from run to
// run; at 250 ms the back-offs still happen and are still counted, but no
// longer decide the figure.
const (
	campaignWorkers = 2
	leaseSize       = 8
	leaseTTL        = 4 * 250 * time.Millisecond
	leaseWindow     = 4 * leaseSize
	minCampaignOps  = 2
	// A set-up sample is the mean of setupBatch back-to-back set-ups, and
	// setup_s the median of campaignSetups such samples: one in-process
	// set-up takes about a millisecond, too little to time alone.
	campaignSetups = 21
	setupBatch     = 10
	// campaignCycle is how many derived seeds successive campaigns of a run
	// cycle through, so that a run averages over several instance draws
	// rather than resting on one graph per cell.
	campaignCycle = 8
	// campaignTimeout bounds one campaign; a run that needs longer has hung.
	campaignTimeout = 120 * time.Second
)

// campaignOp is one whole campaign, timed from the call until Run or
// Finish returned.
type campaignOp struct {
	wall      time.Duration
	allocB    uint64
	report    campaign.Report
	labelBits int
	err       error

	// fabric only
	transport *countingTransport // traced ops
	exitLag   time.Duration      // traced ops: Finish returned → worker exited
}

// loadSpec parses the spec copy and points its seed axis at the seed of
// the run's i-th campaign. Campaign 0 uses the run's seed itself, so the
// default seed runs the spec exactly as examples/campaign/smoke.json has it.
func loadSpec(seed uint64, i int) (campaign.Spec, error) {
	spec, err := campaign.ParseSpec(smokeSpec)
	if err != nil {
		return campaign.Spec{}, err
	}
	spec.Seeds = []uint64{seed + uint64(i%campaignCycle)*instanceStride}
	return spec, nil
}

// finishOp hashes and removes the campaign directory and checks the op's
// output: no error cells, every cell written, and every file matching the
// campaign-smoke digests.
func finishOp(cfg runConfig, op *campaignOp, dir string, i int) {
	defer os.RemoveAll(dir)
	if op.err != nil {
		return
	}
	rep := op.report
	if rep.Executed != rep.Cells || rep.OK+rep.Incompatible+rep.Errors != rep.Executed {
		op.err = fmt.Errorf("campaign wrote %d of %d cells", rep.OK+rep.Incompatible+rep.Errors, rep.Cells)
		return
	}
	hashes, err := hashDir(dir)
	if err != nil {
		op.err = err
		return
	}
	for _, name := range sortedKeys(hashes) {
		cfg.digests.check(fmt.Sprintf("campaign-smoke/%d/%s", i%campaignCycle, name), hashes[name])
	}
	recs, err := campaign.ReadRecords(dir)
	if err != nil {
		op.err = err
		return
	}
	for _, r := range recs {
		op.labelBits = max(op.labelBits, r.LabelBits)
	}
}

// setupRunner parses the spec and makes the campaign directory: the
// set-up of one in-process campaign.
func setupRunner(cfg runConfig, i int) (campaign.Spec, string, error) {
	spec, err := loadSpec(cfg.seed, i)
	if err != nil {
		return campaign.Spec{}, "", err
	}
	dir, err := os.MkdirTemp(cfg.scratch, "runner-")
	return spec, dir, err
}

// runnerOp runs the run's i-th campaign through the in-process Runner.
func runnerOp(cfg runConfig, i int) campaignOp {
	var op campaignOp
	spec, dir, err := setupRunner(cfg, i)
	if err != nil {
		return campaignOp{err: err}
	}
	m0 := memAlloc()
	t1 := obs.Clock()
	op.report, op.err = (&campaign.Runner{Dir: dir, Parallel: campaignWorkers}).Run(spec)
	op.wall = obs.Since(t1)
	op.allocB = memAlloc() - m0
	finishOp(cfg, &op, dir, i)
	return op
}

// fabricEnv is a coordinator serving a fresh campaign directory over a
// loopback HTTP server.
type fabricEnv struct {
	dir   string
	coord *fabric.Coordinator
	srv   *httptest.Server
}

// setupFabric parses the spec, makes the campaign directory, and starts a
// coordinator behind a loopback listener: the set-up of one fabric
// campaign.
func setupFabric(cfg runConfig, i int) (*fabricEnv, error) {
	spec, err := loadSpec(cfg.seed, i)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.scratch, "fabric-")
	if err != nil {
		return nil, err
	}
	coord, err := fabric.NewCoordinator(dir, spec, fabric.Options{LeaseSize: leaseSize, LeaseTTL: leaseTTL, Window: leaseWindow})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &fabricEnv{dir: dir, coord: coord, srv: httptest.NewServer(coord.Handler())}, nil
}

// close stops the server and releases the directory. It tears down an
// unused set-up, so Finish has nothing to report worth keeping.
func (e *fabricEnv) close() {
	e.srv.Close()
	_, _ = e.coord.Finish()
	os.RemoveAll(e.dir)
}

// setupSamples times n batches of setupBatch set-ups, each torn down
// unused after its batch, and returns the mean set-up time of each batch.
func setupSamples(n int, setup func() (func(), error)) ([]float64, error) {
	var out []float64
	teardowns := make([]func(), setupBatch)
	for i := 0; i < n; i++ {
		t0 := obs.Clock()
		for j := range teardowns {
			teardown, err := setup()
			if err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			teardowns[j] = teardown
		}
		out = append(out, obs.Since(t0).Seconds()/setupBatch)
		for _, teardown := range teardowns {
			teardown()
		}
	}
	return out, nil
}

// fabricOp runs the run's i-th campaign through a coordinator behind a loopback
// HTTP server and one two-loop worker, timed until Finish returns. A traced
// op routes the worker through a counting transport and lets the worker
// notice the end by itself; an untraced one cancels it once Finish returns.
func fabricOp(cfg runConfig, i int, traced bool) campaignOp {
	var op campaignOp
	env, err := setupFabric(cfg, i)
	if err != nil {
		return campaignOp{err: err}
	}
	defer env.srv.Close()

	transport := http.DefaultTransport.(*http.Transport).Clone()
	defer transport.CloseIdleConnections()
	var rt http.RoundTripper = transport
	if traced {
		op.transport = newCountingTransport(transport)
		rt = op.transport
	}
	worker := &fabric.Worker{Coordinator: env.srv.URL, Name: "bench", Parallel: campaignWorkers, Client: &http.Client{Transport: rt}}

	runCtx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	waitCtx, stopWait := context.WithTimeout(runCtx, campaignTimeout)
	defer stopWait()
	exited := make(chan error, 1)
	m0 := memAlloc()
	t1 := obs.Clock()
	go func() {
		err := worker.Run(runCtx)
		if err != nil {
			stopWait() // a worker that gave up will never finish the campaign
		}
		exited <- err
	}()
	waitErr := env.coord.Wait(waitCtx)
	op.report, err = env.coord.Finish()
	op.wall = obs.Since(t1)
	finished := obs.Clock()
	op.allocB = memAlloc() - m0
	if !traced {
		cancelRun()
	}
	workerErr := <-exited
	op.exitLag = obs.Since(finished)

	switch {
	case waitErr != nil:
		op.err = fmt.Errorf("campaign did not finish: %v (worker: %v)", waitErr, workerErr)
	case err != nil:
		op.err = err
	case workerErr != nil && !(errors.Is(workerErr, context.Canceled) && !traced):
		op.err = fmt.Errorf("worker: %w", workerErr)
	}
	finishOp(cfg, &op, env.dir, i)
	return op
}

// memAlloc returns the bytes allocated so far by the process.
func memAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// campaignPass runs ops until the budget is spent and at least
// minCampaignOps are done.
func campaignPass(budget time.Duration, op func(i int) campaignOp) []campaignOp {
	var ops []campaignOp
	start := obs.Clock()
	for len(ops) < minCampaignOps || obs.Since(start) < budget {
		runtime.GC()
		ops = append(ops, op(len(ops)))
	}
	return ops
}

// reportCampaign fills the end-to-end metrics of a campaign workload.
func reportCampaign(rep *report, setups []float64, ops []campaignOp) {
	var walls []float64
	var wall time.Duration
	var allocB uint64
	cells := 0
	for _, op := range ops {
		walls = append(walls, op.wall.Seconds())
		countOp(rep, op)
		wall += op.wall
		allocB += op.allocB
		cells += op.report.Executed
	}
	rep.e2e["items_per_s"] = float64(cells) / wall.Seconds()
	rep.e2e["op_p50_s"] = median(walls)
	rep.e2e["alloc_bytes_per_item"] = float64(allocB) / float64(cells)
	rep.e2e["setup_s"] = median(setups)
	rep.note("cells_per_s", rep.e2e["items_per_s"], "cells/s")
	rep.timing("campaign", walls)
	rep.note("alloc_bytes_per_cell", rep.e2e["alloc_bytes_per_item"], "B")
	rep.note("error_ratio", float64(rep.failed)/float64(rep.attempted), "ratio")
	rep.meta["ops"] = len(ops)
}

// countOp adds one op's cells to the attempted and failed counts; a failed
// op fails every cell it was to write.
func countOp(rep *report, op campaignOp) {
	cells := max(op.report.Cells, 1)
	rep.attempted += cells
	switch {
	case op.err != nil:
		rep.failed += cells
		rep.problem("campaign: %v", op.err)
	case op.report.Errors > 0:
		rep.failed += op.report.Errors
		rep.problem("campaign: %d cells ended in status error", op.report.Errors)
	}
	if op.transport != nil {
		if n := op.transport.failures(); n > 0 {
			rep.failed += n
			rep.problem("fabric: %d requests got no 2xx response", n)
		}
	}
}

func runCampaignSmoke(cfg runConfig) (*report, error) {
	rep := newReport()
	budget := cfg.budget
	if cfg.trace {
		budget /= 2
	}
	// A set-up sample also prepares the directory, as Runner.Run does before
	// its first cell and as NewCoordinator does in fabric-loopback's set-up.
	setups, err := setupSamples(campaignSetups, func() (func(), error) {
		spec, dir, err := setupRunner(cfg, 0)
		if err == nil {
			_, err = campaign.Prepare(dir, spec)
		}
		return func() { os.RemoveAll(dir) }, err
	})
	if err != nil {
		return nil, err
	}
	plain := campaignPass(budget, func(i int) campaignOp { return runnerOp(cfg, i) })
	reportCampaign(rep, setups, plain)
	if cfg.trace {
		traceCampaign(cfg, rep)
	}
	return rep, nil
}

func runFabricLoopback(cfg runConfig) (*report, error) {
	rep := newReport()
	// The reference directory of campaign 0: every fabric campaign with the
	// same derived seed must reproduce it byte for byte. The other derived
	// seeds are checked against the pins on the default seed.
	ref := runnerOp(cfg, 0)
	if ref.err != nil {
		return nil, fmt.Errorf("reference Runner: %w", ref.err)
	}
	budget := cfg.budget
	if cfg.trace {
		budget /= 2
	}
	setups, err := setupSamples(campaignSetups, func() (func(), error) {
		env, err := setupFabric(cfg, 0)
		if err != nil {
			return nil, err
		}
		return env.close, nil
	})
	if err != nil {
		return nil, err
	}
	plain := campaignPass(budget, func(i int) campaignOp { return fabricOp(cfg, i, false) })
	reportCampaign(rep, setups, plain)
	if cfg.trace {
		traceFabric(cfg, rep)
	}
	return rep, nil
}

// traceCampaign measures the campaign layers: one traced Runner run for
// worker utilization and reorder depth, then one campaign driven call by
// call through Prepare, RunCell, MarshalRecord, Sink.Put and
// WriteAggregates.
func traceCampaign(cfg runConfig, rep *report) {
	obs.Reset()
	obs.SetEnabled(true)
	traced := runnerOp(cfg, 0)
	snap := obs.TakeSnapshot()
	obs.SetEnabled(false)
	obs.Reset()
	countOp(rep, traced)
	busy, _ := snap.Histogram("campaign.worker.busy")
	workers, _ := snap.Gauge("campaign.workers")
	depth, _ := snap.Gauge("campaign.reorder.depth.max")
	rep.layer["campaign.worker_utilization"] = time.Duration(busy.Sum).Seconds() / (float64(workers) * traced.wall.Seconds())
	rep.layer["campaign.reorder_depth_max"] = float64(depth)
	rep.layer["trace_overhead_s"] = traced.wall.Seconds() - rep.e2e["op_p50_s"]

	if err := stepCampaign(cfg, rep); err != nil {
		rep.problem("campaign driven call by call: %v", err)
	}
	measureCodecLayers(cfg.seed, traced.labelBits, rep)
	rep.meta["label_bits"] = traced.labelBits
}

// stepCampaign runs one campaign single-threaded through the campaign
// core's public calls, timing each layer.
func stepCampaign(cfg runConfig, rep *report) error {
	spec, err := loadSpec(cfg.seed, 0)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.scratch, "steps-")
	if err != nil {
		return err
	}
	op := campaignOp{}
	start := obs.Clock()
	t := obs.Clock()
	p, err := campaign.Prepare(dir, spec)
	if err != nil {
		os.RemoveAll(dir)
		return err
	}
	prepare := obs.Since(t)
	op.report = p.Report
	sink, err := campaign.NewSink(dir, p.Todo, &op.report)
	if err != nil {
		os.RemoveAll(dir)
		return err
	}
	var cells []float64
	busy := map[string]time.Duration{}
	var marshal, put time.Duration
	for idx, cell := range p.Todo {
		t = obs.Clock()
		rec := campaign.RunCell(cell)
		d := obs.Since(t)
		cells = append(cells, d.Seconds())
		busy[cell.Measure] += d
		t = obs.Clock()
		line := campaign.MarshalRecord(rec)
		marshal += obs.Since(t)
		t = obs.Clock()
		err := sink.Put(idx, line, rec.Status)
		put += obs.Since(t)
		if err != nil {
			sink.Close()
			os.RemoveAll(dir)
			return err
		}
	}
	if err := sink.Close(); err != nil {
		os.RemoveAll(dir)
		return err
	}
	t = obs.Clock()
	err = campaign.WriteAggregates(dir, p.Plan.Spec.Name, nil)
	aggregate := obs.Since(t)
	wall := obs.Since(start)
	if err != nil {
		os.RemoveAll(dir)
		return err
	}
	finishOp(cfg, &op, dir, 0)
	countOp(rep, op)

	rep.layer["campaign.prepare_s"] = prepare.Seconds()
	rep.layer["campaign.cell_p50_s"] = median(cells)
	if _, v, ok := tail(cells); ok {
		rep.layer["campaign.cell_tail_s"] = v
	}
	rep.timing("campaign.cell", cells)
	var cellSum time.Duration
	for _, m := range []string{campaign.MeasureEstimate, campaign.MeasureSoundness, campaign.MeasureComm} {
		rep.layer["campaign.cell_busy_s."+m] = busy[m].Seconds()
		cellSum += busy[m]
	}
	rep.layer["campaign.marshal_s"] = marshal.Seconds()
	rep.layer["campaign.sink_put_s"] = put.Seconds()
	rep.layer["campaign.aggregate_s"] = aggregate.Seconds()
	rep.layer["unattributed_s"] = (wall - prepare - cellSum - marshal - put - aggregate).Seconds()
	return nil
}

// traceFabric runs one traced fabric campaign and fills the fabric layer.
func traceFabric(cfg runConfig, rep *report) {
	obs.Reset()
	obs.SetEnabled(true)
	op := fabricOp(cfg, 0, true)
	snap := obs.TakeSnapshot()
	obs.SetEnabled(false)
	obs.Reset()
	countOp(rep, op)
	if op.err != nil {
		return
	}
	tr := op.transport
	leases, reports, beats := tr.path(fabric.PathLease), tr.path(fabric.PathReport), tr.path(fabric.PathHeartbeat)
	cellH, _ := snap.Histogram("fabric.worker.cell")
	windowFull := snap.Counter("fabric.lease.window_full")
	loopTime := time.Duration(campaignWorkers) * op.wall
	rtt := sum(leases) + sum(reports)
	idle := loopTime - rtt - time.Duration(cellH.Sum)

	rep.layer["fabric.lease_rtt_p50_s"] = median(seconds(leases))
	rep.layer["fabric.report_rtt_p50_s"] = median(seconds(reports))
	rep.layer["fabric.requests_per_cell"] = float64(len(leases)+len(reports)+len(beats)) / float64(op.report.Executed)
	rep.layer["fabric.window_full"] = float64(windowFull)
	rep.layer["fabric.heartbeats"] = float64(snap.Counter("fabric.heartbeats"))
	rep.layer["fabric.idle_s"] = idle.Seconds()
	rep.layer["fabric.worker_exit_lag_s"] = op.exitLag.Seconds()
	rep.layer["unattributed_s"] = idle.Seconds() / campaignWorkers
	rep.layer["trace_overhead_s"] = op.wall.Seconds() - rep.e2e["op_p50_s"]
	rep.timing("fabric.lease_rtt", seconds(leases))
	rep.timing("fabric.report_rtt", seconds(reports))
	measureCodecLayers(cfg.seed, op.labelBits, rep)
	rep.meta["label_bits"] = op.labelBits
}
