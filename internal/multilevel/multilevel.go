// Package multilevel implements the V-cycle partitioner the PROP paper's
// conclusion proposes ("we believe that in conjunction with a clustering
// initial phase it will yield a high-quality partitioning tool"): coarsen
// the netlist by heavy-edge matching, partition the coarsest level from
// multiple starts, then uncoarsen level by level, refining the projected
// partition at each level with an iterative engine (PROP or FM).
package multilevel

import (
	"fmt"
	"math/rand"

	"prop/internal/cluster"
	"prop/internal/hypergraph"
	"prop/internal/obs"
	"prop/internal/partition"
	"prop/internal/refine"
)

// Refiner improves a side assignment on one hierarchy level in place and
// returns the refined sides and cut cost.
type Refiner func(h *hypergraph.Hypergraph, sides []uint8, bal partition.Balance) ([]uint8, float64, error)

// AlgoRefiner refines with any locked-move engine by name (see
// refine.Algorithms). laDepth configures "la" (0 selects 2). Note the
// coarse levels carry weighted nets, so "fm" (bucket selector) only works
// on hierarchies of unit-cost nets; "fm-tree" is the safe FM choice.
func AlgoRefiner(algo string, laDepth int) Refiner {
	return AlgoRefinerOpts(refine.Options{Algorithm: algo, LADepth: laDepth})
}

// AlgoRefinerOpts refines with any locked-move engine configured by a full
// refine.Options template; the per-level balance overwrites o.Balance.
// This is how non-default knobs (MaxPasses, an explicit PROP config)
// reach every level of the V-cycle.
func AlgoRefinerOpts(o refine.Options) Refiner {
	return func(h *hypergraph.Hypergraph, sides []uint8, bal partition.Balance) ([]uint8, float64, error) {
		o := o
		o.Balance = bal
		res, err := refine.Bipartition(h, sides, o)
		if err != nil {
			return nil, 0, err
		}
		return res.Sides, res.CutCost, nil
	}
}

// PROPRefiner refines with the paper's PROP engine.
func PROPRefiner() Refiner { return AlgoRefiner("prop", 0) }

// FMRefiner refines with FM (tree selector, so weighted coarse nets work).
func FMRefiner() Refiner { return AlgoRefiner("fm-tree", 0) }

// FlowRefiner refines each level with PROP and then polishes the result
// with the corridor max-flow stage (internal/flow): the move engine
// converges fast, the exact min-cut step breaks the plateaus it stalls on.
// Both stages handle weighted nets and nodes, so any hierarchy works.
func FlowRefiner() Refiner {
	prop := AlgoRefiner("prop", 0)
	flow := AlgoRefiner("flow", 0)
	return func(h *hypergraph.Hypergraph, sides []uint8, bal partition.Balance) ([]uint8, float64, error) {
		refined, cut, err := prop(h, sides, bal)
		if err != nil {
			return nil, 0, err
		}
		polished, pcut, err := flow(h, refined, bal)
		if err != nil {
			return nil, 0, err
		}
		if pcut < cut {
			return polished, pcut, nil
		}
		return refined, cut, nil
	}
}

// Mode names for Config.Mode.
const (
	// ModeVCycle is the classic V-cycle: each coarsening round materializes
	// a copied hypergraph, and uncoarsening projects + refines per level.
	ModeVCycle = "vcycle"
	// ModeNLevel is the n-level hierarchy: contractions are recorded as an
	// in-arena memento stack (one node pair per level), and uncoarsening
	// pops mementos lazily, refining only around just-revived boundary
	// nodes. Peak memory stays O(pins) regardless of depth, which is what
	// makes million-node instances fit.
	ModeNLevel = "nlevel"
)

// Config controls the V-cycle.
type Config struct {
	Balance partition.Balance
	// Mode selects the hierarchy style: ModeVCycle (default) or ModeNLevel.
	Mode string
	// CoarsestNodes stops coarsening at roughly this size (0 → 120).
	CoarsestNodes int
	// InitialRuns is the multi-start count at the coarsest level (0 → 10).
	InitialRuns int
	// UncontractBatch (n-level only) is how many mementos are popped
	// between localized refinement episodes (0 → 64). Smaller batches
	// refine more often; larger ones amortize heap fills.
	UncontractBatch int
	// InPlace (n-level only) mutates the input hypergraph's arenas during
	// the hierarchy instead of copying them — the full unwind restores
	// them bit-for-bit before Partition returns, halving peak memory. Off
	// by default because callers sharing the hypergraph across goroutines
	// (e.g. a server's circuit cache) must not observe the transient state.
	InPlace bool
	// Cycles (n-level only) is how many additional side-respecting
	// recoarsening cycles run after the initial hierarchy (0 → 2, negative
	// → none). Each cycle recoarsens within the current sides — the
	// partition rides to the coarsest level intact — refines it there, and
	// unwinds again; the best cut across cycles wins. Cycles stop early
	// when one fails to improve.
	Cycles int
	// PolishMaxNodes (n-level only) bounds the full-graph refinement polish
	// after the unwind: graphs up to this size get a complete cfg.Refine
	// pass at depth 0 (0 → 20000, negative → never). Million-node runs skip
	// it — the localized batches have already refined every boundary.
	PolishMaxNodes int
	// Refine is the per-level engine (nil → PROPRefiner).
	Refine Refiner
	Seed   int64

	// Tracer, when non-nil, receives phase spans for the V-cycle stages:
	// "multilevel" wrapping the whole cycle, one "coarsen" span per
	// matching round, "initial" around the coarsest multi-start, and one
	// "uncoarsen" span per projection+refine level. Observation-only. When
	// Refine is nil the default PROP refiner inherits the tracer, so its
	// dispatch spans nest inside the level spans.
	Tracer   *obs.Tracer
	TraceRun int
}

// Result reports the outcome.
type Result struct {
	Sides   []uint8
	CutCost float64
	CutNets int
	// Levels is the coarsening depth used.
	Levels int
	// CoarsestCut is the cut before uncoarsening began (coarse costs are
	// comparable because coarsening preserves net costs).
	CoarsestCut float64
	// HierarchyBytes is the peak CSR-arena footprint the n-level
	// hierarchy held on top of the base graph (zero for the V-cycle): the
	// contraction view's tables, overflow arena and undo stacks. The
	// scale study's RSS gate divides peak RSS by base + hierarchy arenas.
	HierarchyBytes int64
}

// Partition runs the multilevel V-cycle.
func Partition(h *hypergraph.Hypergraph, cfg Config) (Result, error) {
	if err := cfg.Balance.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.CoarsestNodes == 0 {
		cfg.CoarsestNodes = 120
	}
	if cfg.InitialRuns == 0 {
		cfg.InitialRuns = 10
	}
	if cfg.UncontractBatch == 0 {
		cfg.UncontractBatch = 64
	}
	if cfg.Refine == nil {
		cfg.Refine = AlgoRefinerOpts(refine.Options{
			Algorithm: "prop", Tracer: cfg.Tracer, TraceRun: cfg.TraceRun,
		})
	}
	var body func(*hypergraph.Hypergraph, Config) (Result, error)
	switch cfg.Mode {
	case "", ModeVCycle:
		body = vcycle
	case ModeNLevel:
		body = nlevel
	default:
		return Result{}, fmt.Errorf("multilevel: unknown mode %q", cfg.Mode)
	}
	sp := cfg.Tracer.StartPhase(cfg.TraceRun, "multilevel")
	res, err := body(h, cfg)
	sp.End()
	return res, err
}

// vcycle is the Partition body, separated so the enclosing "multilevel"
// phase span closes on every return path.
func vcycle(h *hypergraph.Hypergraph, cfg Config) (Result, error) {
	levels, err := cluster.CoarsenStepsTraced(h, cfg.CoarsestNodes, cfg.Seed, cfg.Tracer, cfg.TraceRun)
	if err != nil {
		return Result{}, err
	}
	coarsest := h
	if len(levels) > 0 {
		coarsest = levels[len(levels)-1].Coarse
	}

	// Initial partition at the coarsest level: best of InitialRuns
	// random-start refinements.
	var bestSides []uint8
	bestCut := -1.0
	err = func() error {
		sp := cfg.Tracer.StartPhase(cfg.TraceRun, "initial")
		defer sp.End()
		for r := 0; r < cfg.InitialRuns; r++ {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(r)*7919))
			sides := partition.RandomSides(coarsest, cfg.Balance, rng)
			refined, cut, err := cfg.Refine(coarsest, sides, cfg.Balance)
			if err != nil {
				return err
			}
			if bestCut < 0 || cut < bestCut {
				bestSides, bestCut = refined, cut
			}
		}
		return nil
	}()
	if err != nil {
		return Result{}, err
	}
	coarsestCut := bestCut

	// Uncoarsen: project through each level's map, repair the (stricter)
	// finer-level balance, and refine. A partition feasible at a coarse
	// level — where the tolerance is one whole cluster — can violate the
	// bounds at the next level, and the move-based engines cannot recover
	// from an infeasible state on their own.
	sides := bestSides
	cut := bestCut
	for i := len(levels) - 1; i >= 0; i-- {
		err := func() error {
			sp := cfg.Tracer.StartPhaseLevel(cfg.TraceRun, "uncoarsen", i)
			defer sp.End()
			var fine *hypergraph.Hypergraph
			if i == 0 {
				fine = h
			} else {
				fine = levels[i-1].Coarse
			}
			projected := make([]uint8, fine.NumNodes())
			for u := range projected {
				projected[u] = sides[levels[i].Map[u]]
			}
			fb, err := partition.NewBisection(fine, projected)
			if err != nil {
				return err
			}
			if err := partition.RepairBalance(fb, cfg.Balance); err != nil {
				return err
			}
			sides, cut, err = cfg.Refine(fine, fb.Sides(), cfg.Balance)
			return err
		}()
		if err != nil {
			return Result{}, err
		}
	}

	b, err := partition.NewBisection(h, sides)
	if err != nil {
		return Result{}, err
	}
	_ = cut
	return Result{
		Sides:       sides,
		CutCost:     b.CutCost(),
		CutNets:     b.CutNets(),
		Levels:      len(levels),
		CoarsestCut: coarsestCut,
	}, nil
}

// Describe returns a short human-readable summary of the hierarchy a
// config would build, for logging.
func Describe(h *hypergraph.Hypergraph, cfg Config) (string, error) {
	if cfg.CoarsestNodes == 0 {
		cfg.CoarsestNodes = 120
	}
	levels, err := cluster.CoarsenSteps(h, cfg.CoarsestNodes, cfg.Seed)
	if err != nil {
		return "", err
	}
	s := fmt.Sprintf("%d", h.NumNodes())
	for _, l := range levels {
		s += fmt.Sprintf(" -> %d", l.Coarse.NumNodes())
	}
	return s, nil
}
