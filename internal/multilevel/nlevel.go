package multilevel

import (
	"math/rand"

	"prop/internal/cluster"
	"prop/internal/hypergraph"
	"prop/internal/moves"
	"prop/internal/partition"
)

// nlevel is the Partition body for ModeNLevel: contract one pair at a time
// against the CSR arenas, partition the coarsest residue, then pop the
// memento stack in batches, refining only around just-revived nodes.
// Additional cycles recoarsen within the refined sides (the partition rides
// down intact) and unwind again; the best cut wins. The phase-span shape
// matches the V-cycle ("coarsen" rounds, one "initial", "uncoarsen") so the
// same trace tooling reads both modes.
func nlevel(h *hypergraph.Hypergraph, cfg Config) (Result, error) {
	pool := hypergraph.NewPool()
	var (
		c   *hypergraph.Contracted
		err error
	)
	if cfg.InPlace {
		c, err = hypergraph.NewContractedInPlace(h, pool)
	} else {
		c, err = hypergraph.NewContracted(h, pool)
	}
	if err != nil {
		return Result{}, err
	}
	defer c.Release()
	// In-place mode borrows h's arenas; any early error must unwind the
	// hierarchy so the caller gets its hypergraph back unchanged.
	defer func() {
		if cfg.InPlace {
			scratch := make([]int32, 0, 64)
			for c.Depth() > 0 {
				_, scratch = c.Uncontract(scratch[:0])
			}
		}
	}()

	cycles := cfg.Cycles
	if cycles == 0 {
		cycles = 2
	} else if cycles < 0 {
		cycles = 0
	}
	polishMax := cfg.PolishMaxNodes
	if polishMax == 0 {
		polishMax = 20000
	}

	sides := make([]uint8, h.NumNodes())
	var best []uint8
	bestCut := -1.0
	coarsestCut := 0.0
	levels := 0
	stale := 0
	for iter := 0; iter <= cycles; iter++ {
		seed := cfg.Seed + int64(iter)*104729
		// Cycle 0 coarsens freely; later cycles contract only within the
		// current sides, so the partition survives coarsening exactly.
		var within []uint8
		if iter > 0 {
			within = sides
		}
		if err := cluster.CoarsenInPlaceSides(c, cfg.CoarsestNodes, seed, within, pool, cfg.Tracer, cfg.TraceRun); err != nil {
			return Result{}, err
		}
		if iter == 0 {
			levels = c.Depth()
		} else if c.Depth() == 0 {
			break // sides admit no further contraction; nothing to redo
		}

		// Materialize the coarsest residue as a plain hypergraph for the
		// full-strength coarse refinement — it is ~CoarsestNodes nodes, so
		// the copy is negligible at any input scale.
		coarse, aliveIDs, err := c.CoarseGraph()
		if err != nil {
			return Result{}, err
		}
		var coarseSides []uint8
		err = func() error {
			sp := cfg.Tracer.StartPhase(cfg.TraceRun, "initial")
			defer sp.End()
			if iter > 0 {
				// Warm cycle: the projected current partition is the start.
				proj := make([]uint8, len(aliveIDs))
				for i, id := range aliveIDs {
					proj[i] = sides[id]
				}
				refined, _, err := cfg.Refine(coarse, proj, cfg.Balance)
				if err != nil {
					return err
				}
				coarseSides = refined
				return nil
			}
			// Cycle 0: best of InitialRuns random-start refinements.
			cut0 := -1.0
			for r := 0; r < cfg.InitialRuns; r++ {
				rng := rand.New(rand.NewSource(seed + int64(r)*7919))
				start := partition.RandomSides(coarse, cfg.Balance, rng)
				refined, cut, err := cfg.Refine(coarse, start, cfg.Balance)
				if err != nil {
					return err
				}
				if cut0 < 0 || cut < cut0 {
					coarseSides, cut0 = refined, cut
				}
			}
			coarsestCut = cut0
			return nil
		}()
		if err != nil {
			return Result{}, err
		}

		// Map the coarse assignment back onto base node IDs: coarse node i
		// is the cluster whose representative is base node aliveIDs[i].
		for i, id := range aliveIDs {
			sides[id] = coarseSides[i]
		}

		// Lazy uncontraction: pop mementos in batches of UncontractBatch,
		// each pop reviving one node next to its cluster representative
		// (side inheritance keeps the cut bit-exact), then run boundary-
		// localized FM seeded with the revived pairs. While the residue is
		// small enough (≤ polishMax alive), every doubling of the alive
		// count additionally materializes it and runs the full-strength
		// refiner — V-cycle-quality refinement where it is cheap, localized
		// refinement everywhere above. One "uncoarsen" span covers the
		// whole unwind — per-pop spans would swamp the trace at n-level
		// depths.
		err = func() error {
			sp := cfg.Tracer.StartPhase(cfg.TraceRun, "uncoarsen")
			defer sp.End()
			l := moves.NewLocalized(c, cfg.Balance, c.MaxBaseNodeWeight(), c.MinBaseNodeWeight(), sides, c.Alive, pool)
			defer func() { l.Release() }()
			l.MaxActive = 8 * cfg.UncontractBatch
			caseA := make([]int32, 0, 64)
			checkpoint := c.AliveCount() * 2
			for c.Depth() > 0 {
				for i := 0; i < cfg.UncontractBatch && c.Depth() > 0; i++ {
					var m hypergraph.Memento
					m, caseA = c.Uncontract(caseA[:0])
					l.Uncontracted(int(m.U), int(m.V), caseA)
				}
				l.Refine(8)
				if c.AliveCount() < checkpoint || c.Depth() == 0 {
					continue
				}
				checkpoint = c.AliveCount() * 2
				if polishMax > 0 && c.AliveCount() <= polishMax {
					mid, midIDs, err := c.CoarseGraph()
					if err != nil {
						return err
					}
					proj := make([]uint8, len(midIDs))
					for i, id := range midIDs {
						proj[i] = sides[id]
					}
					// Same discipline as the V-cycle's projection step: repair
					// the balance before refining — the move engines cannot
					// recover from an infeasible start on their own.
					mb, err := partition.NewBisection(mid, proj)
					if err != nil {
						return err
					}
					if err := partition.RepairBalance(mb, cfg.Balance); err != nil {
						return err
					}
					refined, _, err := cfg.Refine(mid, mb.Sides(), cfg.Balance)
					if err != nil {
						return err
					}
					for i, id := range midIDs {
						sides[id] = refined[i]
					}
					// The checkpoint moved nodes behind the localized
					// refiner's back; rebuild its incremental state.
					l.Release()
					l = moves.NewLocalized(c, cfg.Balance, c.MaxBaseNodeWeight(), c.MinBaseNodeWeight(), sides, c.Alive, pool)
					l.MaxActive = 8 * cfg.UncontractBatch
				}
			}
			return nil
		}()
		if err != nil {
			return Result{}, err
		}

		// Depth 0: the arenas are restored, so h itself is valid again.
		// Repair the balance to the exact fine-level window, then (on
		// graphs small enough that a full sweep is cheap) polish with the
		// configured per-level engine.
		b, err := partition.NewBisection(h, sides)
		if err != nil {
			return Result{}, err
		}
		if err := partition.RepairBalance(b, cfg.Balance); err != nil {
			return Result{}, err
		}
		copy(sides, b.Sides())
		cut := b.CutCost()
		if polishMax > 0 && h.NumNodes() <= polishMax {
			refined, pcut, err := cfg.Refine(h, sides, cfg.Balance)
			if err != nil {
				return Result{}, err
			}
			copy(sides, refined)
			cut = pcut
		}
		if bestCut < 0 || cut < bestCut {
			bestCut = cut
			best = append(best[:0], sides...)
			stale = 0
		} else if stale++; stale >= 2 {
			// Two consecutive non-improving cycles end the iteration. One is
			// tolerated because a worse intermediate partition reshuffles the
			// next recoarsening — cheap diversification that regularly escapes
			// the plateau a single-strike break would stop at.
			break
		}
	}

	copy(sides, best)
	b, err := partition.NewBisection(h, sides)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Sides:          sides,
		CutCost:        b.CutCost(),
		CutNets:        b.CutNets(),
		Levels:         levels,
		CoarsestCut:    coarsestCut,
		HierarchyBytes: c.ArenaBytes(),
	}, nil
}
