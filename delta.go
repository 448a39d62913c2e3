package prop

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"time"

	"prop/internal/delta"
	"prop/internal/obs"
	"prop/internal/partition"
	"prop/internal/refine"
	"prop/internal/warm"
)

// Delta is a typed netlist edit script (an ECO — engineering change
// order): add/remove nodes and nets, reweight nodes, re-pin/recost nets.
// Node references use the combined ID space [0, NumNodes+len(AddNodes)):
// IDs ≥ NumNodes name the delta's own added nodes in order. Deltas
// serialize as JSON; see Netlist.ApplyDelta and Repartition.
type Delta = delta.Delta

// DeltaNodeAdd, DeltaNodeWeight, DeltaNetAdd, DeltaNetCost and
// DeltaNetRepin are the Delta entry types.
type (
	DeltaNodeAdd    = delta.NodeAdd
	DeltaNodeWeight = delta.NodeWeight
	DeltaNetAdd     = delta.NetAdd
	DeltaNetCost    = delta.NetCost
	DeltaNetRepin   = delta.NetRepin
)

// DeltaMapping records how node and net IDs of the base netlist translate
// into the netlist a Delta produced, and is what ProjectSides consumes.
type DeltaMapping = delta.Mapping

// SideUnassigned marks a node with no side yet in Options.Initial; the
// warm start places such nodes greedily by connectivity.
const SideUnassigned = partition.Unassigned

// ApplyDelta validates d against the netlist and returns the edited
// netlist plus the old→new ID mapping. Deltas that only reweight nodes or
// recost nets share the base's internal arenas (Θ(nodes+nets), no
// adjacency rebuild); structural deltas rebuild in one pass. Base nets
// that node removal leaves with fewer than two pins are dropped (counted
// in the mapping).
func (n *Netlist) ApplyDelta(d *Delta) (*Netlist, *DeltaMapping, error) {
	h, mp, err := d.Apply(n.h)
	if err != nil {
		return nil, nil, err
	}
	return &Netlist{h}, mp, nil
}

// Fingerprint returns a 64-bit content hash of everything that determines
// partitioning results: structure, net costs and node weights. Symbolic
// names are excluded. Combined with Options.Fingerprint it keys the
// result cache.
func (n *Netlist) Fingerprint() uint64 { return n.h.Fingerprint() }

// Fingerprint returns a 64-bit content hash of every option that affects
// partitioning results: algorithm, balance, runs, seed, lookahead depth,
// clustered/warm start and PROP/Flow/ML parameter overrides. Parallel,
// OnRun, Tracer and TraceID are excluded — results are bit-identical
// across their values by construction.
func (o Options) Fingerprint() uint64 {
	f := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		_, _ = f.Write(b[:])
	}
	_, _ = f.Write([]byte(o.Algorithm))
	put(math.Float64bits(o.R1))
	put(math.Float64bits(o.R2))
	put(uint64(o.Runs))
	put(uint64(o.Seed))
	put(uint64(o.LADepth))
	if o.ClusteredStart {
		put(1)
	} else {
		put(0)
	}
	if o.Initial != nil {
		put(uint64(len(o.Initial)))
		_, _ = f.Write(o.Initial)
	}
	if p := o.PROP; p != nil {
		put(math.Float64bits(p.PInit))
		put(math.Float64bits(p.PMin))
		put(math.Float64bits(p.PMax))
		put(math.Float64bits(p.GLo))
		put(math.Float64bits(p.GUp))
		put(uint64(p.Refinements))
		put(uint64(p.TopK))
		if p.DeterministicInit {
			put(1)
		}
	}
	if p := o.Flow; p != nil {
		put(uint64(p.Radius))
		put(math.Float64bits(p.MaxFrac))
		put(uint64(p.Rounds))
	}
	// ML hierarchy knobs change the result, so they participate; appended
	// last so pre-existing fingerprints (ML == nil) are unchanged.
	if p := o.ML; p != nil {
		_, _ = f.Write([]byte(p.Mode))
		put(uint64(p.CoarsestNodes))
		put(uint64(p.InitialRuns))
		put(uint64(p.UncontractBatch))
	}
	return f.Sum64()
}

// ProjectSides projects a side assignment of the base netlist through the
// delta mapping: surviving nodes keep their side at their new ID, added
// nodes come back as SideUnassigned. The result is sized for the edited
// netlist and is exactly what Options.Initial expects.
func ProjectSides(mp *DeltaMapping, oldSides []uint8) ([]uint8, error) {
	return mp.ProjectSides(oldSides)
}

// Repartition is the incremental path in one call: apply the delta to the
// base netlist, project the previous side assignment through the mapping,
// and warm-start the partitioner from that state (Options.Initial). For
// the default PROP algorithm the result is then polished by alternating
// FM and deterministic-init PROP until neither improves the cut — a
// cross-heuristic fixpoint that recovers most of the quality a cold
// multi-start portfolio buys, at a fraction of its time. It returns the
// edited netlist alongside its partition. PROP's prefix-rollback passes
// never end worse than their starting cut, so the warm result never
// regresses below the projected previous solution.
func Repartition(base *Netlist, prevSides []uint8, d *Delta, o Options) (*Netlist, Result, error) {
	return RepartitionCtx(context.Background(), base, prevSides, d, o)
}

// RepartitionCtx is Repartition under a context (see PartitionCtx).
func RepartitionCtx(ctx context.Context, base *Netlist, prevSides []uint8, d *Delta, o Options) (*Netlist, Result, error) {
	applyStart := time.Now()
	edited, mp, err := base.ApplyDelta(d)
	if err != nil {
		return nil, Result{}, err
	}
	o.Tracer.EmitDeltaApply(obs.DeltaApply{
		ID:         o.TraceID,
		Structural: mp.Structural,
		Nodes:      mp.NewNodes,
		Nets:       mp.NewNets,
		Collapsed:  mp.CollapsedNets,
		Dur:        time.Since(applyStart),
	})
	initial, err := mp.ProjectSides(prevSides)
	if err != nil {
		return nil, Result{}, err
	}
	o.Initial = initial
	res, err := PartitionCtx(ctx, edited, o)
	if err != nil {
		return nil, Result{}, err
	}
	if partner, ok := polishPartner(o.Algorithm); ok {
		bal, err := o.balance()
		if err != nil {
			return nil, Result{}, err
		}
		polishStart := time.Now()
		// Trace-tag polish stages with the run index past the portfolio.
		p, err := warm.PolishWith(edited.h, res.Sides, res.CutCost, res.CutNets,
			propConfig(bal, o, res.Runs),
			refine.Options{Algorithm: partner, Balance: bal, LADepth: o.LADepth,
				Flow:   flowParams(o),
				Tracer: o.Tracer, TraceRun: res.Runs})
		if err != nil {
			return nil, Result{}, err
		}
		if p.CutCost < res.CutCost {
			res.Sides, res.CutCost, res.CutNets = p.Sides, p.CutCost, p.CutNets
		}
		res.Elapsed += time.Since(polishStart)
	}
	return edited, res, nil
}

// polishPartner maps the requested algorithm to the engine alternated with
// deterministic-init PROP during the Repartition polish fixpoint. Every
// locked-move algorithm polishes — the warm start makes its passes cheap —
// with itself as the partner so the final sides are a local optimum of the
// move system the caller asked for; PROP keeps the historical FM-tree
// partner. Non-move algorithms (spectral, placement, annealing, ...) have
// no locked-move polish notion and return ok = false.
func polishPartner(a Algorithm) (string, bool) {
	switch a {
	case "", AlgoPROP, AlgoFMTree:
		return "fm-tree", true
	case AlgoFM:
		return "fm", true
	case AlgoLA:
		return "la", true
	case AlgoKL:
		return "kl", true
	case AlgoSK:
		return "sk", true
	case AlgoFlow:
		// AlgoFlow already polishes with the corridor max-flow stage during
		// its runs; the warm fixpoint keeps the same partner.
		return "flow", true
	}
	return "", false
}
