package main

import (
	"bytes"
	"fmt"

	"prop"
	"prop/internal/gen"
	"prop/internal/hgio"
)

const (
	// scaleNodes sizes the scale-nlevel netlist: the BENCH_scale row
	// where n-level growth first turns superlinear.
	scaleNodes = 100000
	// coarsestNodes is the n-level coarsening target (the multilevel
	// default), which the hierarchy probe coarsens to as well.
	coarsestNodes = 120
	// scaleSeed is the generator and partition seed of the BENCH_scale
	// row, fixed for every workload seed: on one netlist the n-level wall
	// time ranges from 24 s to 51 s across partition seeds on a 2-core
	// host, depending on whether the localized refiner ends up walking
	// the heap of a side at its balance bound. A seed-varied input would
	// measure that lottery rather than the code.
	scaleSeed = 7
	// nlevelCycleSeedStep is how far each n-level cycle's coarsening seed
	// lies from the previous one's (internal/multilevel).
	nlevelCycleSeedStep = 104729
)

func runScale(cfg config, rep *report) error {
	c, setupS, rawSetupS, err := timedSetup(cfg, func() (circuit, error) {
		var buf bytes.Buffer
		p := gen.ScaleParams{Nodes: scaleNodes, Seed: scaleSeed}
		if err := gen.WriteScaleHGR(&buf, p); err != nil {
			return circuit{}, err
		}
		n, err := prop.ReadHGR(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return circuit{}, err
		}
		return circuit{name: "scale", hgr: buf.Bytes(), n: n}, nil
	})
	if err != nil {
		return err
	}
	rep.record["setup_raw_s"] = rawSetupS
	o := prop.Options{
		Algorithm: prop.AlgoMLPROP, Seed: scaleSeed, Parallel: cfg.par,
		ML: &prop.MLParams{Mode: "nlevel"},
	}
	do := func(lt *layerTrace) sweep {
		var s sweep
		if r, ok := call(rep, lt, cfg.speed, &s, "scale/ml-prop-nlevel", c.n, o); ok {
			s.probeSides = r.Sides
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

	h, err := hgio.ReadHGR(bytes.NewReader(c.hgr))
	if err != nil {
		return err
	}
	if h.Fingerprint() != c.n.Fingerprint() {
		return fmt.Errorf("probe input differs from the partitioned netlist")
	}
	hp, err := hierarchyProbe(h, coarsestNodes, scaleSeed, nil)
	if err != nil {
		return err
	}
	m := rep.layers
	m.set("hypergraph.levels", float64(hp.levels), "count")
	m.set("hypergraph.arena_mb", hp.arenaMB, "MB")
	m.set("hypergraph.hier_mb", hp.hierMB, "MB")
	m.set("hypergraph.unwind_s", hp.unwindS, "s")
	m.set("ds.sparse_topdown_ns", topDownProbe(h), "ns")

	// Derived, not measured: an n-level cycle's uncoarsen span is its
	// memento unwind, the localized refiner and the checkpoints' rebuilds
	// (CoarseGraph, RepairBalance, NewLocalized). The span's self time less
	// each cycle's probed unwind leaves the refiner plus those rebuilds.
	// Cycle 0 coarsens freely, as the probe above does. A later cycle
	// coarsens within the sides it starts from, which are not observable
	// from outside; it is probed within the final sides, which are exactly
	// its start when it is one of the closing non-improving cycles.
	k := float64(len(traced))
	cycles := lt.spans("uncoarsen") / len(traced)
	unwinds := []float64{hp.unwindS}
	for iter := 1; iter < cycles; iter++ {
		later, err := hierarchyProbe(h, coarsestNodes, scaleSeed+int64(iter)*nlevelCycleSeedStep, traced[0].probeSides)
		if err != nil {
			return err
		}
		unwinds = append(unwinds, later.unwindS)
	}
	unwound := 0.0
	for _, u := range unwinds {
		unwound += u
	}
	localized := lt.selfSeconds("uncoarsen")/k - unwound
	if localized <= 0 {
		rep.check("moves.localized_s derivation", fmt.Errorf("uncoarsen self time %.3fs ≤ probed unwinds %.3fs",
			lt.selfSeconds("uncoarsen")/k, unwound))
	}
	m.set("moves.localized_s", localized, "s")
	rep.record["nlevel_cycles"] = cycles
	rep.record["nlevel_unwind_s"] = unwinds
	return nil
}
