// Command perfbench is the repository benchmark: it runs one named
// workload against the public APIs of engine, campaign and campaign/fabric
// for a fixed wall-clock budget, checks every output, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of standard output:
//
//	perfbench --workload estimate-lanes --seed 1 --seconds 25 --trace 0
//
// The workloads and metrics are declared in BENCHMARK.json at the
// repository root; workloads.json in this directory records each
// workload's inputs and what one operation is. Build and run it from the
// repository root with perfbench/run.sh, which keeps every build and
// scratch file under .bench_build.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	_ "rpls/internal/schemes/all"
)

// defaultSeed is the seed the pinned digests in digests.json belong to; it
// is also the only seed of the smoke spec copy.
const defaultSeed = 1

// scratchRoot holds every file a run writes, relative to the repository
// root the benchmark runs from.
const scratchRoot = ".bench_build/perfbench"

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics a user of the system sees; every workload
// reports all of them with tracing off. One item is a Monte-Carlo trial on
// estimate-lanes and monitor-detect and a campaign cell on campaign-smoke
// and fabric-loopback; workloads.json defines one operation per workload.
var endToEnd = []metricDef{
	{"items_per_s", "1/s"},
	{"op_p50_s", "s"},
	{"alloc_bytes_per_item", "B"},
	{"setup_s", "s"},
}

// perLayer lists the traced run's metrics. A workload reports 0 for a
// layer it does not exercise; workloads.json lists the layers each one
// measures.
var perLayer = []metricDef{
	{"field.fingerprint_ns", "ns"},
	{"field.matches_ns", "ns"},
	{"bitstring.write_ns_per_kbit", "ns/kbit"},
	{"bitstring.read_ns_per_kbit", "ns/kbit"},
	{"schemes.certs_s_per_trial", "s"},
	{"schemes.decide_s_per_trial", "s"},
	{"schemes.calls_per_trial", "count"},
	{"schemes.allocs_per_node", "count"},
	{"schemes.certs_lanes_s_per_batch", "s"},
	{"schemes.decide_lanes_s_per_batch", "s"},
	{"engine.round_s", "s"},
	{"engine.exchange_self_s", "s"},
	{"engine.batched_self_s_per_batch", "s"},
	{"engine.lanes_per_batch", "lanes"},
	{"engine.batched_fallback", "count"},
	{"engine.fold_s", "s"},
	{"engine.useful_trial_ratio", "ratio"},
	{"graph.build_s", "s"},
	{"prover.label_s", "s"},
	{"campaign.prepare_s", "s"},
	{"campaign.cell_p50_s", "s"},
	{"campaign.cell_tail_s", "s"},
	{"campaign.cell_busy_s.estimate", "s"},
	{"campaign.cell_busy_s.soundness", "s"},
	{"campaign.cell_busy_s.comm", "s"},
	{"campaign.marshal_s", "s"},
	{"campaign.sink_put_s", "s"},
	{"campaign.aggregate_s", "s"},
	{"campaign.worker_utilization", "ratio"},
	{"campaign.reorder_depth_max", "count"},
	{"fabric.lease_rtt_p50_s", "s"},
	{"fabric.report_rtt_p50_s", "s"},
	{"fabric.requests_per_cell", "count"},
	{"fabric.window_full", "count"},
	{"fabric.heartbeats", "count"},
	{"fabric.idle_s", "s"},
	{"fabric.worker_exit_lag_s", "s"},
	{"unattributed_s", "s"},
	{"trace_overhead_s", "s"},
}

// runConfig is what a workload receives from the command line.
type runConfig struct {
	seed    uint64
	budget  time.Duration // measuring time of the run
	trace   bool
	scratch string // a fresh directory this run may write into
	digests *digests
}

// report is what a workload run produces.
type report struct {
	attempted, failed int
	problems          []string // output checks that failed
	e2e               map[string]float64
	layer             map[string]float64
	// notes are workload-specific metrics (trials_per_s, detect_p50_s, ...),
	// printed by name for people; the JSON result carries the generic
	// end-to-end names above.
	notes []note
	meta  map[string]any
}

// note is one human-readable metric line, with the sample count and
// percentile behind it when it is a percentile.
type note struct {
	name    string
	value   float64
	unit    string
	samples int
	pct     float64
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, meta: map[string]any{}}
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(name string, value float64, unit string) {
	r.notes = append(r.notes, note{name: name, value: value, unit: unit})
}

// timing records the median of xs (in seconds) under name_p50_s and, when
// the sample count supports one, the tail under name_tail_s.
func (r *report) timing(name string, xs []float64) {
	r.notes = append(r.notes, note{name: name + "_p50_s", value: median(xs), unit: "s", samples: len(xs), pct: 50})
	if pct, v, ok := tail(xs); ok {
		r.notes = append(r.notes, note{name: name + "_tail_s", value: v, unit: "s", samples: len(xs), pct: pct})
	}
}

// workloads maps a workload name to its run function.
var workloads = map[string]func(runConfig) (*report, error){
	"estimate-lanes":  runEstimateLanes,
	"monitor-detect":  runMonitorDetect,
	"campaign-smoke":  runCampaignSmoke,
	"fabric-loopback": runFabricLoopback,
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: estimate-lanes, monitor-detect, campaign-smoke or fabric-loopback")
	seed := flag.Uint64("seed", defaultSeed, "workload seed; inputs are a pure function of it")
	secs := flag.Int("seconds", 25, "measuring time of the run")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	writePins := flag.Bool("write-pins", false, "record this run's output digests into perfbench/digests.json (default seed only)")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	if *writePins && *seed != defaultSeed {
		fmt.Fprintf(os.Stderr, "perfbench: -write-pins needs the default seed %d\n", defaultSeed)
		return 2
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(scratchRoot, *name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	d, err := newDigests(*seed == defaultSeed, *writePins)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg := runConfig{seed: *seed, budget: time.Duration(*secs) * time.Second, trace: *trace == 1, scratch: scratch, digests: d}
	rep, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	rep.problems = append(rep.problems, d.problems...)
	if *writePins {
		if err := d.write(*name); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	return emit(*name, cfg, rep)
}

// emit prints the human-readable lines, the metadata line, and the result
// line; it returns the exit code.
func emit(name string, cfg runConfig, rep *report) int {
	defs, values := endToEnd, rep.e2e
	if cfg.trace {
		defs, values = perLayer, rep.layer
	}
	metrics := map[string]any{}
	for _, m := range defs {
		v, ok := values[m.name]
		if !ok && !cfg.trace {
			rep.problem("workload reported no %s", m.name)
		}
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
		fmt.Printf("%-16s %-34s %14.6g %s\n", name, m.name, v, m.unit)
	}
	for _, n := range rep.notes {
		extra := ""
		if n.samples > 0 {
			extra = fmt.Sprintf("  (p%g of %d samples)", n.pct, n.samples)
		}
		fmt.Printf("%-16s %-34s %14.6g %s%s\n", name, n.name, n.value, n.unit, extra)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: output check failed: %s\n", name, p)
	}

	rep.meta["workload"] = name
	rep.meta["seed"] = cfg.seed
	rep.meta["trace"] = cfg.trace
	rep.meta["go"] = runtime.Version()
	rep.meta["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rep.meta["cpu"] = cpuModel()
	rep.meta["percentile_samples"] = percentileSamples(rep.notes)
	meta, err := json.Marshal(map[string]any{"meta": rep.meta})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(meta))

	correct := len(rep.problems) == 0
	out, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !correct {
		return 1
	}
	return 0
}

// percentileSamples maps every percentile note to its sample count.
func percentileSamples(notes []note) map[string]int {
	out := map[string]int{}
	for _, n := range notes {
		if n.samples > 0 {
			out[n.name] = n.samples
		}
	}
	return out
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile(filepath.Join("/proc", "cpuinfo"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
