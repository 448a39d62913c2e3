// Package fm implements the Fiduccia–Mattheyses iterative-improvement
// bipartitioner (FM), the primary baseline of the PROP paper. Node gains
// are the deterministic Eqn.-1 gains; one pass virtually moves and locks
// every movable node in best-gain-first order, then keeps the maximum-
// prefix-gain subset; passes repeat until no pass improves the cut.
//
// Two selection structures are provided, matching the paper's Table 4
// rows: the classic bucket array (FM-bucket, Θ(1) updates, unit net costs
// only) and a balanced AVL tree (FM-tree, Θ(log n) updates, arbitrary net
// costs).
//
// The pass protocol itself — selection, locking, prefix-max rollback,
// convergence, tracing — lives in the shared engine (internal/moves);
// this package is the NodePolicy supplying FM's delta-gain maintenance.
package fm

import (
	"fmt"

	"prop/internal/ds"
	"prop/internal/moves"
	"prop/internal/obs"
	"prop/internal/partition"
)

// Selector names the gain container used to pick the next node.
type Selector int

const (
	// Bucket is the classic FM bucket array; requires unit net costs.
	Bucket Selector = iota
	// Tree is a balanced AVL tree; works with arbitrary net costs.
	Tree
)

// String implements fmt.Stringer.
func (s Selector) String() string {
	switch s {
	case Bucket:
		return "bucket"
	case Tree:
		return "tree"
	}
	return fmt.Sprintf("Selector(%d)", int(s))
}

// Config controls a run of FM.
type Config struct {
	Balance  partition.Balance
	Selector Selector
	// MaxPasses bounds the number of improvement passes; 0 means run until
	// a pass yields no positive gain (the paper reports 2–4 in practice).
	MaxPasses int

	// Tracer, when non-nil, receives one event per pass (cut, G_max,
	// moves). Observation-only; a nil Tracer costs one branch per pass.
	Tracer *obs.Tracer
	// TraceRun labels emitted events with this multi-start run index.
	TraceRun int
}

// Result reports the outcome of a run.
type Result struct {
	Sides   []uint8
	CutCost float64
	CutNets int
	Passes  int
	Moves   int // total virtual moves across passes
}

// Partition runs FM from the given initial side assignment and returns the
// locally optimal result. The initial slice is not modified.
func Partition(b *partition.Bisection, cfg Config) (Result, error) {
	if err := cfg.Balance.Validate(); err != nil {
		return Result{}, err
	}
	h := b.H
	if cfg.Selector == Bucket && !h.UnitCost() {
		return Result{}, fmt.Errorf("fm: bucket selector requires unit net costs (paper §1); use Tree")
	}
	n := h.NumNodes()
	eng := &engine{
		b:      b,
		cfg:    cfg,
		gain:   make([]float64, n),
		locked: make([]bool, n),
	}
	out := moves.Run(eng.loop(), cfg.MaxPasses, cfg.Tracer, cfg.TraceRun, nil)
	return Result{
		Sides:   b.Sides(),
		CutCost: b.CutCost(),
		CutNets: b.CutNets(),
		Passes:  out.Passes,
		Moves:   out.Moves,
	}, nil
}

// engine is FM's NodePolicy: Eqn.-1 gains maintained by the classic FM
// delta rules, selected from a bucket array or an AVL tree.
type engine struct {
	b      *partition.Bisection
	cfg    Config
	gain   []float64
	locked []bool
	keep   [2]moves.Container
	l      *moves.Loop
	// selfCheck (tests only) verifies after every move that the maintained
	// delta gains equal freshly computed Eqn.-1 gains.
	selfCheck bool
	checkErr  error
}

// loop lazily binds the policy to its pass loop (tests construct engine
// literals and call runPass directly).
func (e *engine) loop() *moves.Loop {
	if e.l == nil {
		e.l = &moves.Loop{
			B: e.b, Bal: e.cfg.Balance, Pol: e,
			Tracer: e.cfg.Tracer, TraceRun: e.cfg.TraceRun,
		}
	}
	return e.l
}

// runPass executes one pass (test hook; production passes run through
// moves.Run). It returns the realized G_max and the virtual move count.
func (e *engine) runPass() (float64, int) {
	gmax, steps, _ := e.loop().RunPass()
	return gmax, steps
}

// Algo implements moves.NodePolicy.
func (e *engine) Algo() string { return "fm" }

// Key implements moves.NodePolicy.
func (e *engine) Key(u int) float64 { return e.gain[u] }

// BeginPass implements moves.NodePolicy: unlock everything, compute fresh
// Eqn.-1 gains, and fill one container per side.
func (e *engine) BeginPass() [2]moves.Container {
	h := e.b.H
	n := h.NumNodes()
	maxDeg := 0
	for u := 0; u < n; u++ {
		if d := h.Degree(u); d > maxDeg {
			maxDeg = d
		}
	}
	e.keep = [2]moves.Container{e.newContainer(n, maxDeg), e.newContainer(n, maxDeg)}
	for u := 0; u < n; u++ {
		e.locked[u] = false
		e.gain[u] = e.b.Gain(u)
		e.keep[e.b.Side(u)].Insert(u, e.gain[u])
	}
	return e.keep
}

func (e *engine) newContainer(n, maxGain int) moves.Container {
	if e.cfg.Selector == Bucket {
		return moves.WrapBuckets(ds.NewBuckets(n, maxGain))
	}
	return moves.WrapTree(ds.NewAVLTree(n))
}

// MoveLock implements moves.NodePolicy: lock u, apply the delta rules to
// its unlocked neighbors (before the move, so pin counts describe the
// pre-move state), then realize the move.
func (e *engine) MoveLock(u int) float64 {
	e.locked[u] = true
	e.updateNeighborGains(u)
	imm := e.b.Move(u)
	if e.selfCheck && e.checkErr == nil {
		for v := 0; v < e.b.H.NumNodes(); v++ {
			if !e.locked[v] && e.gain[v] != e.b.Gain(v) {
				e.checkErr = fmt.Errorf("fm: node %d maintained gain %g, fresh gain %g after moving %d",
					v, e.gain[v], e.b.Gain(v), u)
				break
			}
		}
	}
	return imm
}

// updateNeighborGains applies the classic FM delta rules for moving u,
// BEFORE the move itself is applied to the bisection.
func (e *engine) updateNeighborGains(u int) {
	h := e.b.H
	s := e.b.Side(u)
	t := 1 - s
	u32 := int32(u)
	for _, nt32 := range h.NetsOf(u) {
		nt := int(nt32)
		c := h.NetCost(nt)
		tc := e.b.PinCount(t, nt)
		if tc == 0 {
			// Net was uncut: moving u makes every other pin want to follow.
			for _, v := range h.Net(nt) {
				if v != u32 && !e.locked[v] {
					e.bump(int(v), +c)
				}
			}
		} else if tc == 1 {
			// The lone pin on t loses its incentive to come back.
			for _, v := range h.Net(nt) {
				if v != u32 && e.b.Side(int(v)) == t && !e.locked[v] {
					e.bump(int(v), -c)
				}
			}
		}
		fc := e.b.PinCount(s, nt) - 1 // from-side count after the move
		if fc == 0 {
			// Net becomes uncut on t: other pins no longer gain by moving.
			for _, v := range h.Net(nt) {
				if v != u32 && !e.locked[v] {
					e.bump(int(v), -c)
				}
			}
		} else if fc == 1 {
			// The lone remaining pin on s can now free the net.
			for _, v := range h.Net(nt) {
				if v != u32 && e.b.Side(int(v)) == s && !e.locked[v] {
					e.bump(int(v), +c)
				}
			}
		}
	}
}

func (e *engine) bump(v int, delta float64) {
	e.gain[v] += delta
	e.keep[e.b.Side(v)].Update(v, e.gain[v])
}
