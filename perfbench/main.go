// Command perfbench is the repository's benchmark of record. It runs one
// named workload against the public partitioning API (and, for serving, a
// propserve subprocess), checks every result independently, and prints one
// JSON result line whose metrics are the end-to-end numbers (--trace 0) or
// the per-layer numbers of a separate traced run (--trace 1). See
// README.md for the workloads, the metrics and which layer metric should
// move which end-to-end metric.
//
// Usage (from the repository root; run.sh builds and calls this):
//
//	perfbench --workload suite --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one named input set and the code that runs it.
type workload struct {
	name string
	why  string
	run  func(cfg config, rep *report) error
}

var workloads = []workload{
	{"suite", "the paper's own experiment: flat PROP and FM multi-start, flow and the V-cycle on the 16 Table-1 clones", runSuite},
	{"scale-nlevel", "one 100k-node netlist through n-level ml-prop, where contraction and localized FM dominate", runScale},
	{"serve-eco", "propserve under a closed loop of durable cold jobs, warm ECO repartitions and cached repeats", runServe},
}

// metricDef declares one reported metric.
type metricDef struct {
	name, unit, better string
	// moves names the end-to-end metric and workload a per-layer metric
	// should move; empty for end-to-end metrics.
	moves string
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "solve_s", unit: "s", better: "lower"},
	{name: "cut_geomean", unit: "cost", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "lat_p50_ms", unit: "ms", better: "lower"},
	{name: "lat_p99_ms", unit: "ms", better: "lower"},
	{name: "done_rps", unit: "1/s", better: "higher"},
}

var perLayer = []metricDef{
	{"core.gain_ns", "ns", "lower", "solve_s on suite"},
	{"core.rebuild_ms", "ms", "lower", "solve_s on suite"},
	{"core.passes", "count", "lower", "solve_s and cut_geomean on suite"},
	{"core.moves", "count", "lower", "solve_s and cut_geomean on suite"},
	{"core.kept_frac", "ratio", "higher", "solve_s and cut_geomean on suite"},
	{"ds.gainheap_op_ns", "ns", "lower", "solve_s and cut_geomean on suite"},
	{"engine.util", "ratio", "higher", "solve_s and cut_geomean on suite"},
	{"refine.prop_s", "s", "lower", "solve_s and cut_geomean on suite"},
	{"refine.fm_s", "s", "lower", "solve_s and cut_geomean on suite"},
	{"refine.flow_s", "s", "lower", "solve_s and cut_geomean on suite"},
	{"flow.dinic_s", "s", "lower", "solve_s and cut_geomean on suite"},
	{"cluster.coarsen_s", "s", "lower", "solve_s on suite and scale-nlevel"},
	{"multilevel.initial_s", "s", "lower", "solve_s on suite and scale-nlevel"},
	{"multilevel.uncoarsen_s", "s", "lower", "solve_s on suite and scale-nlevel"},
	{"hypergraph.levels", "count", "lower", "peak_rss_mb on scale-nlevel"},
	{"hypergraph.arena_mb", "MB", "lower", "peak_rss_mb on scale-nlevel"},
	{"hypergraph.hier_mb", "MB", "lower", "peak_rss_mb on scale-nlevel"},
	{"hypergraph.unwind_s", "s", "lower", "solve_s on scale-nlevel"},
	{"core.checkpoint_s", "s", "lower", "solve_s on scale-nlevel"},
	{"core.checkpoints", "count", "lower", "solve_s on scale-nlevel"},
	{"multilevel.uncoarsen_self_pct", "%", "lower", "solve_s on scale-nlevel"},
	{"moves.localized_s", "s", "lower", "solve_s on scale-nlevel"},
	{"ds.sparse_topdown_ns", "ns", "lower", "solve_s on scale-nlevel"},
	{"propserve.queue_wait_ms", "ms", "lower", "lat_p99_ms on serve-eco"},
	{"jobs.append_ms", "ms", "lower", "lat_p99_ms on serve-eco"},
	{"propserve.solve_ms", "ms", "lower", "lat_p50_ms and done_rps on serve-eco"},
	{"cache.hit_ratio", "ratio", "higher", "lat_p50_ms and done_rps on serve-eco"},
	{"delta.apply_ms", "ms", "lower", "lat_p50_ms and done_rps on serve-eco"},
	{"warm.repartition_ms", "ms", "lower", "lat_p50_ms and done_rps on serve-eco"},
	{"obs.overhead_pct", "%", "lower", "none: the cost of tracing itself, per workload"},
}

// config is one run's settings.
type config struct {
	seed      int64
	seconds   time.Duration
	trace     bool
	par       int    // GOMAXPROCS, Options.Parallel and client connections
	propserve string // server binary for serve-eco
	workDir   string // scratch space inside the checkout
	speed     *hostSpeed
}

// report collects one run's outcome.
type report struct {
	attempted, failed int
	failures          []string
	e2e, layers       metrics
	// record holds details for the run record beyond the result line:
	// sample counts, the tail percentile used, result digests.
	record map[string]any
}

func newReport() *report {
	return &report{e2e: metrics{}, layers: metrics{}, record: map[string]any{}}
}

// check counts one attempted operation and records its failure, if any.
func (r *report) check(what string, err error) bool {
	r.attempted++
	if err == nil {
		return true
	}
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, what+": "+err.Error())
	}
	return false
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	var (
		name      = flag.String("workload", "", "workload name: suite, scale-nlevel or serve-eco")
		seed      = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds   = flag.Int("seconds", 20, "measurement time of the run")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		propserve = flag.String("propserve", ".bench_build/bin/propserve", "propserve binary for serve-eco")
		workDir   = flag.String("work", ".bench_build/perfbench", "scratch and run-record directory")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *propserve, *workDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, propserve, workDir string) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1")
	}
	par := runtime.NumCPU()
	if par > 2 {
		par = 2
	}
	runtime.GOMAXPROCS(par)
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	cfg := config{
		seed: seed, seconds: time.Duration(seconds) * time.Second, trace: trace == 1,
		par: par, propserve: propserve, workDir: workDir, speed: newHostSpeed(par),
	}
	rep := newReport()
	steal0, total0 := cpuStat()
	if err := w.run(cfg, rep); err != nil {
		return err
	}
	rep.record["calibration_ms"] = cfg.speed.points
	if steal1, total1 := cpuStat(); total1 > total0 {
		// Time the hypervisor ran other guests on this machine's CPUs: the
		// main source of run-to-run noise on a shared virtual host.
		rep.record["host_steal_pct"] = 100 * float64(steal1-steal0) / float64(total1-total0)
	}

	out := resultLine{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: metrics{}}
	defs, got := endToEnd, rep.e2e
	if cfg.trace {
		defs, got = perLayer, rep.layers
	}
	for _, d := range defs {
		v, ok := got[d.name]
		if !ok && !cfg.trace {
			return fmt.Errorf("workload %s did not report %s", name, d.name)
		}
		// A per-layer metric the workload does not exercise reads 0; the
		// run record lists which ones it measured.
		out.Metrics.set(d.name, v.Value, d.unit)
	}
	if err := out.Metrics.validate(); err != nil {
		return err
	}
	if out.Attempted < 1 {
		return fmt.Errorf("workload %s attempted nothing", name)
	}
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED", f)
	}
	if err := writeRecord(cfg, w, rep, out); err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return fmt.Errorf("%d of %d operations failed the independent check", out.Failed, out.Attempted)
	}
	return nil
}

// writeRecord stores the run record next to the scratch space: provenance
// (host, toolchain, commit, seed), the workload's reason, the metrics with
// the layer → end-to-end map, and the workload's own details.
func writeRecord(cfg config, w *workload, rep *report, out resultLine) error {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	layerMap := map[string]string{}
	measured := []string{}
	for _, d := range perLayer {
		layerMap[d.name] = d.moves
		if _, ok := rep.layers[d.name]; ok {
			measured = append(measured, d.name)
		}
	}
	rec := map[string]any{
		"provenance": map[string]any{
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"parallel":   cfg.par,
			"go":         runtime.Version(),
			"commit":     commit,
			"seed":       cfg.seed,
			"seconds":    cfg.seconds.Seconds(),
			"trace":      cfg.trace,
			"time":       time.Now().UTC().Format(time.RFC3339),
		},
		"workload":  w.name,
		"why":       w.why,
		"result":    out,
		"layer_map": layerMap,
		"details":   rep.record,
	}
	if cfg.trace {
		rec["layers_measured"] = measured
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.workDir, fmt.Sprintf("%s-seed%d-trace%v.json", w.name, cfg.seed, cfg.trace))
	fmt.Fprintln(os.Stderr, "perfbench: run record", path)
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// cpuTime returns this process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuStat returns the machine's steal and total CPU ticks from /proc/stat,
// zeros when unavailable.
func cpuStat() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		// guest and guest_nice (fields 9 and 10) are already in user.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// peakRSSMB returns VmHWM, the kernel's peak resident-set high-water mark,
// of process pid ("self" for this one) in MiB.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/%s/status", pid)
}
