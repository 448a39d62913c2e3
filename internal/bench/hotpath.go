package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"prop/internal/core"
	"prop/internal/fm"
	"prop/internal/gen"
	"prop/internal/obs"
	"prop/internal/obs/report"
	"prop/internal/partition"
)

// The hot-path study times single-threaded PROP and FM runs per circuit —
// the quantity the CSR + incremental-refinement work optimizes — and emits
// a machine-readable report (scripts/bench.sh writes it to
// BENCH_hotpath.json) so perf regressions are diffable across commits.

// HotpathSeries is the timing of one method on one circuit.
type HotpathSeries struct {
	// BestCut is the best cut over the runs (same multi-start protocol and
	// seeds as the golden tests, so it must not drift across perf work).
	BestCut float64 `json:"best_cut"`
	// RunMillis is the wall-clock time of each independent run, run order.
	RunMillis []float64 `json:"run_millis"`
	// MeanMillis and MinMillis summarize RunMillis.
	MeanMillis float64 `json:"mean_millis"`
	MinMillis  float64 `json:"min_millis"`
}

// HotpathCircuit is the per-circuit record.
type HotpathCircuit struct {
	Name  string         `json:"name"`
	Nodes int            `json:"nodes"`
	Nets  int            `json:"nets"`
	Pins  int            `json:"pins"`
	Runs  int            `json:"runs"`
	PROP  HotpathSeries  `json:"prop"`
	FM    *HotpathSeries `json:"fm,omitempty"`
	// PROPTraced re-times the PROP runs with a pass-level tracer attached,
	// and TraceOverheadPct is its mean slowdown relative to the untraced
	// series — the cost of turning observability on.
	PROPTraced       *HotpathSeries `json:"prop_traced,omitempty"`
	TraceOverheadPct float64        `json:"trace_overhead_pct"`
	// PhaseWallUS is the per-phase wall time (µs, slash-joined phase
	// paths, summed over the traced series) aggregated from the traced
	// runs' phase spans by internal/obs/report.
	PhaseWallUS map[string]int64 `json:"phase_wall_us,omitempty"`
}

// HotpathReport is the full study.
type HotpathReport struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
	// FMPassBaselineNS is the pinned pre-refactor ns/op of
	// BenchmarkPassEngine (a full FM-bucket industry2 run). It is a fixed
	// reference, not a measurement of this report's machine state:
	// scripts/bench.sh fails when the unified pass engine regresses more
	// than 5% against it, and cmd/bench carries it forward verbatim when
	// regenerating the report.
	FMPassBaselineNS int64 `json:"fm_pass_baseline_ns,omitempty"`
	// DisabledPhaseNSPerOp is the measured cost of one StartPhase/End pair
	// on a nil tracer — the price every emit site pays when tracing is off.
	// It must stay in the low nanoseconds (the nil path allocates nothing).
	DisabledPhaseNSPerOp float64          `json:"disabled_phase_ns_per_op"`
	Circuits             []HotpathCircuit `json:"circuits"`
}

// ReadHotpath parses a previously written report (for carrying pinned
// fields forward across regenerations).
func ReadHotpath(r io.Reader) (HotpathReport, error) {
	var rep HotpathReport
	err := json.NewDecoder(r).Decode(&rep)
	return rep, err
}

// DefaultHotpathCircuits is the study's circuit set: the three largest
// suite circuits, where the hot loops dominate setup.
func DefaultHotpathCircuits() []string { return []string{"biomed", "s15850", "industry2"} }

// RunHotpath times runs multi-start runs of PROP (and FM for reference) on
// each named suite circuit. Every run is timed individually so the report
// captures per-run wall clock, the acceptance metric of the hot-path
// optimization work. Each circuit's PROP series is re-timed with a
// pass-level tracer writing to traceSink (io.Discard when nil) to measure
// the tracing overhead.
func RunHotpath(names []string, runs int, seed int64, traceSink, progress io.Writer) (HotpathReport, error) {
	if traceSink == nil {
		traceSink = io.Discard
	}
	rep := HotpathReport{
		GoMaxProcs:           runtime.GOMAXPROCS(0),
		GoVersion:            runtime.Version(),
		Seed:                 seed,
		DisabledPhaseNSPerOp: measureDisabledPhase(),
	}
	specs := map[string]gen.SuiteSpec{}
	for _, s := range gen.Table1() {
		specs[s.Name] = s
	}
	bal := partition.Exact5050()
	for _, name := range names {
		spec, ok := specs[name]
		if !ok {
			return rep, fmt.Errorf("bench: unknown hotpath circuit %q", name)
		}
		c, err := gen.SuiteCircuit(spec)
		if err != nil {
			return rep, err
		}
		h := c.H
		rec := HotpathCircuit{
			Name:  name,
			Nodes: h.NumNodes(),
			Nets:  h.NumNets(),
			Pins:  h.NumPins(),
			Runs:  runs,
		}
		propRun := func(seed int64, _ int) (float64, error) {
			b, err := randomStart(h, bal, seed)
			if err != nil {
				return 0, err
			}
			res, err := core.Partition(b, core.DefaultConfig(bal))
			if err != nil {
				return 0, err
			}
			return res.CutCost, nil
		}
		// The traced series tees its JSONL into memory so the per-phase
		// wall-time map can be aggregated afterwards; each run is wrapped in
		// a run span and a "prop" phase span (the same shape the refine
		// dispatch layer emits) so the report has a tree to sum.
		var traceMem bytes.Buffer
		tracer := obs.New(io.MultiWriter(traceSink, &traceMem), obs.LevelPass)
		propTracedRun := func(seed int64, r int) (float64, error) {
			b, err := randomStart(h, bal, seed)
			if err != nil {
				return 0, err
			}
			cfg := core.DefaultConfig(bal)
			cfg.Tracer = tracer
			cfg.TraceRun = r
			tracer.EmitRunStart(obs.RunStart{ID: name, Run: r})
			runStart := time.Now()
			sp := tracer.StartPhase(r, "prop")
			res, err := core.Partition(b, cfg)
			sp.End()
			end := obs.RunEnd{ID: name, Run: r, Dur: time.Since(runStart)}
			if err != nil {
				end.Err = err.Error()
			}
			tracer.EmitRunEnd(end)
			if err != nil {
				return 0, err
			}
			return res.CutCost, nil
		}
		fmRun := func(seed int64, _ int) (float64, error) {
			b, err := randomStart(h, bal, seed)
			if err != nil {
				return 0, err
			}
			res, err := fm.Partition(b, fm.Config{Balance: bal, Selector: fm.Bucket})
			if err != nil {
				return 0, err
			}
			return res.CutCost, nil
		}
		if rec.PROP, err = timeSeries(propRun, runs, seed); err != nil {
			return rep, fmt.Errorf("bench: hotpath %s PROP: %w", name, err)
		}
		tracedSeries, err := timeSeries(propTracedRun, runs, seed)
		if err != nil {
			return rep, fmt.Errorf("bench: hotpath %s PROP traced: %w", name, err)
		}
		rec.PROPTraced = &tracedSeries
		if rec.PROP.MeanMillis > 0 {
			rec.TraceOverheadPct = (tracedSeries.MeanMillis - rec.PROP.MeanMillis) / rec.PROP.MeanMillis * 100
		}
		traceRep, err := report.Read(&traceMem)
		if err != nil {
			return rep, fmt.Errorf("bench: hotpath %s trace report: %w", name, err)
		}
		rec.PhaseWallUS = report.PhaseWallMap(traceRep)
		if tracedSeries.BestCut != rec.PROP.BestCut {
			return rep, fmt.Errorf("bench: hotpath %s: traced best cut %g != untraced %g (tracing must be observation-only)",
				name, tracedSeries.BestCut, rec.PROP.BestCut)
		}
		fmSeries, err := timeSeries(fmRun, runs, seed)
		if err != nil {
			return rep, fmt.Errorf("bench: hotpath %s FM: %w", name, err)
		}
		rec.FM = &fmSeries
		if progress != nil {
			fmt.Fprintf(progress, "hotpath %-10s PROP cut %g mean %.1fms (traced %+.1f%%) | FM cut %g mean %.1fms\n",
				name, rec.PROP.BestCut, rec.PROP.MeanMillis, rec.TraceOverheadPct,
				rec.FM.BestCut, rec.FM.MeanMillis)
		}
		rep.Circuits = append(rep.Circuits, rec)
	}
	return rep, nil
}

// phaseSink keeps the disabled-phase measurement loop from being
// optimized away.
var phaseSink obs.PhaseSpan

// measureDisabledPhase times one StartPhase/End pair on a nil tracer —
// the fast path every emit site takes when tracing is off.
func measureDisabledPhase() float64 {
	var nilTracer *obs.Tracer
	const iters = 1 << 20
	start := time.Now()
	for i := 0; i < iters; i++ {
		sp := nilTracer.StartPhase(i&7, "bench")
		phaseSink = sp
		sp.End()
	}
	return float64(time.Since(start).Nanoseconds()) / iters
}

func timeSeries(run func(seed int64, r int) (float64, error), runs int, seed int64) (HotpathSeries, error) {
	s := HotpathSeries{RunMillis: make([]float64, 0, runs)}
	best := 0.0
	for r := 0; r < runs; r++ {
		start := time.Now()
		cut, err := run(seed+int64(r), r)
		if err != nil {
			return s, err
		}
		ms := float64(time.Since(start).Nanoseconds()) / 1e6
		s.RunMillis = append(s.RunMillis, ms)
		if r == 0 || cut < best {
			best = cut
		}
	}
	s.BestCut = best
	var sum float64
	s.MinMillis = s.RunMillis[0]
	for _, ms := range s.RunMillis {
		sum += ms
		if ms < s.MinMillis {
			s.MinMillis = ms
		}
	}
	s.MeanMillis = sum / float64(len(s.RunMillis))
	return s, nil
}

// WriteHotpath emits the report as indented JSON.
func WriteHotpath(w io.Writer, rep HotpathReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
