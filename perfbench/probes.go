package main

import (
	"fmt"
	"os"
	"time"

	"prop/internal/cluster"
	"prop/internal/core"
	"prop/internal/ds"
	"prop/internal/hypergraph"
	"prop/internal/jobs"
	"prop/internal/partition"
)

// Layer probes: each times one internal package's exported entry point on
// the workload's own input, for the layers whose cost the program's trace
// events do not separate. Every probe repeats its measurement and reports
// the median.

const probeReps = 15

// gainProbe times core.Calculator on a partition of h: one Gain call over
// every node (ns per call), a full product Rebuild (ms), and one
// ds.GainHeap insert or delete keyed by those gains (ns per operation).
// The probabilities are seeded as the paper does: FM gains (all p = 1)
// mapped through the probability function.
func gainProbe(h *hypergraph.Hypergraph, sides []uint8) (gainNS, rebuildMS, heapOpNS float64, err error) {
	b, err := partition.NewBisection(h, sides)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("gain probe: %w", err)
	}
	cfg := core.DefaultConfig(partition.Exact5050())
	c := core.NewCalculator(b)
	n := h.NumNodes()
	for u := range c.P {
		c.P[u] = 1
	}
	c.Rebuild()
	gains := make([]float64, n)
	for u := range gains {
		gains[u] = c.Gain(u)
	}
	for u := range c.P {
		c.P[u] = cfg.Probability(gains[u])
	}
	c.Rebuild()

	var g, r, hp []float64
	for rep := 0; rep < probeReps; rep++ {
		t0 := time.Now()
		for u := 0; u < n; u++ {
			gains[u] = c.Gain(u)
		}
		g = append(g, float64(time.Since(t0).Nanoseconds())/float64(n))

		t0 = time.Now()
		c.Rebuild()
		r = append(r, ms(time.Since(t0)))

		heap := ds.NewGainHeap(n)
		t0 = time.Now()
		for u := 0; u < n; u++ {
			heap.Insert(u, gains[u])
		}
		for u := 0; u < n; u++ {
			heap.Delete(u)
		}
		hp = append(hp, float64(time.Since(t0).Nanoseconds())/float64(2*n))
	}
	return median(g), median(r), median(hp), nil
}

// hierarchy is what the n-level probe measures on the workload's netlist.
type hierarchy struct {
	levels  int     // contractions recorded by one free coarsening
	arenaMB float64 // the base CSR arenas
	hierMB  float64 // the contraction view's peak arenas
	unwindS float64 // popping the full memento stack, no refinement
}

// hierarchyProbe coarsens h in place to target nodes as an n-level cycle
// does with the same seed — freely for nil sides (the first cycle), within
// sides otherwise (a recoarsening cycle) — then pops every memento with no
// refinement in between. The unwind restores h's arenas bit for bit.
func hierarchyProbe(h *hypergraph.Hypergraph, target int, seed int64, sides []uint8) (hierarchy, error) {
	pool := hypergraph.NewPool()
	c, err := hypergraph.NewContracted(h, pool)
	if err != nil {
		return hierarchy{}, fmt.Errorf("hierarchy probe: %w", err)
	}
	defer c.Release()
	if err := cluster.CoarsenInPlaceSides(c, target, seed, sides, pool, nil, 0); err != nil {
		return hierarchy{}, fmt.Errorf("hierarchy probe: %w", err)
	}
	out := hierarchy{
		levels:  c.Depth(),
		arenaMB: float64(h.ArenaBytes()) / (1 << 20),
		hierMB:  float64(c.ArenaBytes()) / (1 << 20),
	}
	scratch := make([]int32, 0, 64)
	t0 := time.Now()
	for c.Depth() > 0 {
		_, scratch = c.Uncontract(scratch[:0])
	}
	out.unwindS = time.Since(t0).Seconds()
	return out, nil
}

// topDownProbe times a full ds.SparseGainHeap.TopDown walk — what the
// localized refiner pays when it scans a side for a feasible move — over
// every node of h keyed by its summed net cost (ns per visited node).
func topDownProbe(h *hypergraph.Hypergraph) float64 {
	n := h.NumNodes()
	pos := make([]int32, n)
	ds.FillAbsent(pos)
	heap := ds.NewSparseGainHeap(pos)
	for u := 0; u < n; u++ {
		g := 0.0
		for _, e := range h.NetsOf(u) {
			g += h.NetCost(int(e))
		}
		heap.Insert(u, g)
	}
	var xs []float64
	for rep := 0; rep < probeReps; rep++ {
		visited := 0
		t0 := time.Now()
		heap.TopDown(func(int, float64) bool { visited++; return true })
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(visited))
	}
	return median(xs)
}

// journalProbe times fsynced jobs journal appends with the run's record
// sizes: each job's submit (payload) and its terminal transition (result)
// are one append each. Returns the median ms per append.
func journalProbe(dir string, payload, result []byte) (float64, error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	store, _, err := jobs.Open(jobs.Config{Dir: dir})
	if err != nil {
		return 0, fmt.Errorf("journal probe: %w", err)
	}
	var xs []float64
	for rep := 0; rep < probeReps; rep++ {
		t0 := time.Now()
		j, err := store.Submit("probe", payload)
		if err != nil {
			store.Close()
			return 0, fmt.Errorf("journal probe: %w", err)
		}
		xs = append(xs, ms(time.Since(t0)))
		if !store.Transition(j.ID, jobs.Pending, jobs.Running, nil) {
			store.Close()
			return 0, fmt.Errorf("journal probe: job %s not pending", j.ID)
		}
		t0 = time.Now()
		if !store.Transition(j.ID, jobs.Running, jobs.Done, func(j *jobs.Job) { j.Result = result }) {
			store.Close()
			return 0, fmt.Errorf("journal probe: job %s not running", j.ID)
		}
		xs = append(xs, ms(time.Since(t0)))
	}
	if err := store.Close(); err != nil {
		return 0, fmt.Errorf("journal probe: %w", err)
	}
	return median(xs), nil
}
