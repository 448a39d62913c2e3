package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"prop"
	"prop/internal/gen"
	"prop/internal/hgio"
)

const (
	// suiteRuns is the multi-start count of flat PROP and FM alike.
	suiteRuns = 4
	// setupReps is how often a run repeats its set-up to report a median.
	setupReps = 9
	// probeCircuit is the suite circuit the core and heap probes run on.
	probeCircuit = "industry2"
	// suiteSeed is the fixed Options.Seed of every suite call. Varying it
	// per workload seed moved solve_s by 11% across seeds on top of the
	// host's noise, more than a bound can absorb.
	suiteSeed = 1
)

// circuit is one generated netlist with the HGR text it was parsed from.
type circuit struct {
	name string
	hgr  []byte
	n    *prop.Netlist
}

// suiteCircuits generates the 16 Table-1 clones — the same netlists for
// every workload seed, as in the paper's experiment — writes each as HGR
// and parses it back through the public reader.
func suiteCircuits() ([]circuit, error) {
	var out []circuit
	for _, spec := range gen.Table1() {
		n, err := prop.Generate(prop.GenParams{
			Nodes: spec.Nodes, Nets: spec.Nets, Pins: spec.Pins, Seed: gen.SuiteSeed(spec.Name),
		})
		if err != nil {
			return nil, err
		}
		c, err := roundTrip(spec.Name, n)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

func roundTrip(name string, n *prop.Netlist) (circuit, error) {
	var buf bytes.Buffer
	if err := n.WriteHGR(&buf); err != nil {
		return circuit{}, fmt.Errorf("%s: %w", name, err)
	}
	parsed, err := prop.ReadHGR(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return circuit{}, fmt.Errorf("%s: %w", name, err)
	}
	return circuit{name: name, hgr: buf.Bytes(), n: parsed}, nil
}

// timedSetup runs build setupReps times, each from a collected heap right
// after a host-speed calibration, and returns the last result with the
// median wall time, at reference host speed and raw.
func timedSetup[T any](cfg config, build func() (T, error)) (out T, setupS, rawS float64, err error) {
	var walls, raw []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		m := cfg.speed.mark()
		cfg.speed.calibrate()
		f := cfg.speed.factorSince(m)
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return out, 0, 0, err
		}
		d := time.Since(t0).Seconds()
		walls = append(walls, d/f)
		raw = append(raw, d)
		out = v
	}
	return out, median(walls), median(raw), nil
}

// suiteCalls are the partition calls every circuit gets.
func suiteCalls(seed int64, par int) []prop.Options {
	return []prop.Options{
		{Algorithm: prop.AlgoPROP, Runs: suiteRuns, Seed: seed, Parallel: par},
		{Algorithm: prop.AlgoFM, Runs: suiteRuns, Seed: seed, Parallel: par},
		{Algorithm: prop.AlgoFlow, Seed: seed, Parallel: par},
		{Algorithm: prop.AlgoMLPROP, Seed: seed, Parallel: par},
	}
}

// sweep is one pass over a workload's partition calls.
type sweep struct {
	wall       time.Duration
	cpu        time.Duration // process CPU time over the sweep
	speed      float64       // host-speed factor around the sweep
	lat        []time.Duration
	outs       []outcome
	probeSides []uint8 // suite: flat PROP sides of the probe circuit; scale: the result
}

// call runs one checked partition call, traced into lt when non-nil, and
// times a host-speed chunk right before it when hs is non-nil.
func call(rep *report, lt *layerTrace, hs *hostSpeed, s *sweep, key string, n *prop.Netlist, o prop.Options) (prop.Result, bool) {
	if lt != nil {
		o.Tracer = lt.tracer()
	}
	busy := lt.busy()
	// Start every timed call from a collected heap, so one call's garbage
	// neither slows the next nor lifts its memory peak.
	runtime.GC()
	hs.chunk()
	t0 := time.Now()
	r, err := prop.Partition(n, o)
	d := time.Since(t0)
	if lt != nil && o.Algorithm != prop.AlgoMLPROP {
		lt.addEngine(lt.busy()-busy, d*time.Duration(o.Parallel))
	}
	if err == nil {
		err = verify(n, r.Sides, r.CutCost, o)
	}
	if !rep.check(key, err) {
		return r, false
	}
	s.wall += d
	s.lat = append(s.lat, d)
	s.outs = append(s.outs, outcome{Key: key, Cut: r.CutCost, Hash: sidesHash(r.Sides)})
	return r, true
}

func runSuite(cfg config, rep *report) error {
	circuits, setupS, rawSetupS, err := timedSetup(cfg, suiteCircuits)
	if err != nil {
		return err
	}
	rep.record["setup_raw_s"] = rawSetupS
	calls := suiteCalls(suiteSeed, cfg.par)
	do := func(lt *layerTrace) sweep {
		var s sweep
		for _, c := range circuits {
			for _, o := range calls {
				r, ok := call(rep, lt, cfg.speed, &s, c.name+"/"+string(o.Algorithm), c.n, o)
				if ok && c.name == probeCircuit && o.Algorithm == prop.AlgoPROP {
					s.probeSides = r.Sides
				}
			}
		}
		return s
	}
	untraced, traced, lt := measure(cfg, rep, do)
	if err := endToEndMetrics(cfg, rep, setupS, untraced); err != nil {
		return err
	}
	if !cfg.trace {
		return nil
	}
	traceLayers(rep, lt, untraced, traced)
	for _, c := range circuits {
		if c.name != probeCircuit || traced[0].probeSides == nil {
			continue
		}
		h, err := hgio.ReadHGR(bytes.NewReader(c.hgr))
		if err != nil {
			return err
		}
		if h.Fingerprint() != c.n.Fingerprint() {
			return fmt.Errorf("probe input of %s differs from the partitioned netlist", c.name)
		}
		gainNS, rebuildMS, heapNS, err := gainProbe(h, traced[0].probeSides)
		if err != nil {
			return err
		}
		rep.layers.set("core.gain_ns", gainNS, "ns")
		rep.layers.set("core.rebuild_ms", rebuildMS, "ms")
		rep.layers.set("ds.gainheap_op_ns", heapNS, "ns")
	}
	return nil
}

// measure runs do until the run's time is spent: untraced sweeps only for
// --trace 0; alternating untraced and traced sweeps, at least one of each,
// for --trace 1. The host's speed is calibrated before and after every
// sweep, and a sweep's factor is taken over those calibrations and the
// chunks of its calls. Every sweep must reproduce the first one's cuts and
// side hashes exactly, traced or not.
func measure(cfg config, rep *report, do func(lt *layerTrace) sweep) (untraced, traced []sweep, lt *layerTrace) {
	if cfg.trace {
		lt = newLayerTrace()
	}
	start := time.Now()
	cfg.speed.calibrate()
	for i := 0; ; i++ {
		tracedSweep := cfg.trace && i%2 == 1
		var s sweep
		from := cfg.speed.mark() - speedChunks
		cpu0 := cpuTime()
		if tracedSweep {
			s = do(lt)
		} else {
			s = do(nil)
		}
		s.cpu = cpuTime() - cpu0
		cfg.speed.calibrate()
		s.speed = cfg.speed.factorSince(from)
		if tracedSweep {
			traced = append(traced, s)
		} else {
			untraced = append(untraced, s)
		}
		if i > 0 {
			rep.check("determinism", sameOutcomes(untraced[0].outs, s.outs))
		}
		if time.Since(start) >= cfg.seconds && (!cfg.trace || tracedSweep) {
			break
		}
	}
	return untraced, traced, lt
}

// endToEndMetrics reports the metrics suite and scale-nlevel share, from
// their untraced sweeps, each at reference host speed by its own factor.
func endToEndMetrics(cfg config, rep *report, setupS float64, untraced []sweep) error {
	var walls, raw, speed, cpu, cuts []float64
	var perSweep [][]float64
	total := 0.0
	calls := 0
	for _, s := range untraced {
		walls = append(walls, s.wall.Seconds()/s.speed)
		raw = append(raw, s.wall.Seconds())
		speed = append(speed, s.speed)
		cpu = append(cpu, s.cpu.Seconds())
		lat := durations(s.lat, time.Millisecond)
		for i := range lat {
			lat[i] /= s.speed
		}
		perSweep = append(perSweep, lat)
		calls += len(s.lat)
		total += s.wall.Seconds() / s.speed
	}
	// Latencies are each call's median over the sweeps, so neither
	// percentile depends on how many sweeps fit into the run.
	lat := perCallMedians(perSweep)
	for _, o := range untraced[0].outs {
		cuts = append(cuts, o.Cut)
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	p99 := tailPercentile(lat, 0.99)
	rep.e2e.set("setup_s", setupS, "s")
	rep.e2e.set("solve_s", median(walls), "s")
	rep.e2e.set("cut_geomean", geomean(cuts), "cost")
	rep.e2e.set("peak_rss_mb", rss, "MB")
	rep.e2e.set("lat_p50_ms", median(lat), "ms")
	rep.e2e.set("lat_p99_ms", p99.Value, "ms")
	rep.e2e.set("done_rps", float64(calls)/total, "1/s")
	rep.record["sweeps"] = len(untraced)
	rep.record["sweep_s"] = walls
	rep.record["sweep_raw_s"] = raw
	rep.record["sweep_speed_factor"] = speed
	rep.record["sweep_cpu_s"] = cpu
	rep.record["lat_p99"] = p99
	rep.record["results"] = untraced[0].outs
	rep.record["digest"] = fmt.Sprintf("%016x", digest(untraced[0].outs))
	return nil
}

// traceLayers reports the per-layer metrics read from the program's own
// trace events, per traced sweep.
func traceLayers(rep *report, lt *layerTrace, untraced, traced []sweep) {
	k := float64(len(traced))
	m := rep.layers
	lt.mu.Lock()
	passes, moves, kept := lt.passes, lt.moves, lt.kept
	engineBusy, engineCap := lt.engineBusy, lt.engineCap
	checkpoint, checkpoints := lt.checkpoint, lt.checkpoints
	lt.mu.Unlock()
	m.set("core.passes", float64(passes)/k, "count")
	m.set("core.moves", float64(moves)/k, "count")
	if moves > 0 {
		m.set("core.kept_frac", float64(kept)/float64(moves), "ratio")
	}
	if engineCap > 0 {
		m.set("engine.util", float64(engineBusy)/float64(engineCap), "ratio")
	}
	m.set("refine.prop_s", lt.seconds("prop")/k, "s")
	m.set("refine.fm_s", lt.seconds("fm")/k, "s")
	m.set("refine.flow_s", lt.seconds("flow")/k, "s")
	m.set("flow.dinic_s", lt.seconds("dinic")/k, "s")
	m.set("cluster.coarsen_s", lt.seconds("coarsen")/k, "s")
	m.set("multilevel.initial_s", lt.seconds("initial")/k, "s")
	m.set("multilevel.uncoarsen_s", lt.seconds("uncoarsen")/k, "s")
	m.set("core.checkpoint_s", checkpoint.Seconds()/k, "s")
	m.set("core.checkpoints", float64(checkpoints)/k, "count")
	if run := lt.seconds("multilevel"); run > 0 {
		m.set("multilevel.uncoarsen_self_pct", 100*lt.selfSeconds("uncoarsen")/run, "%")
	}
	var u, t []float64
	for _, s := range untraced {
		u = append(u, s.wall.Seconds())
	}
	for _, s := range traced {
		t = append(t, s.wall.Seconds())
	}
	m.set("obs.overhead_pct", 100*(median(t)-median(u))/median(u), "%")
	rep.record["traced_sweep_s"] = t
}
