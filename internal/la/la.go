// Package la implements Krishnamurthy's lookahead (LA-k) min-cut
// bipartitioner, the second iterative-improvement baseline of the PROP
// paper. Each node carries a k-element gain vector; the i-th element counts
// nets that would be freed from (resp. could have been freed into) the
// node's side after i−1 further moves, using binding numbers: a net with a
// locked pin on a side can never be freed from that side. Vectors are
// compared lexicographically.
//
// The paper notes LA's memory blow-up for bucket structures; here vectors
// are encoded into a single ordered key and kept in the shared AVL tree, so
// the implementation is Θ(m) space like PROP while preserving LA semantics.
// The pass protocol runs on the shared engine (internal/moves); this
// package is the NodePolicy supplying vector computation and the
// relevant-net update filter.
package la

import (
	"fmt"

	"prop/internal/ds"
	"prop/internal/moves"
	"prop/internal/obs"
	"prop/internal/partition"
)

// Config controls a run of LA-k.
type Config struct {
	K         int // lookahead depth; 1 degenerates to FM's gain (k=2..4 typical)
	Balance   partition.Balance
	MaxPasses int // 0 = run until no improving pass

	// Tracer, when non-nil, receives one event per pass. Observation-only.
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
	Moves   int
}

// Partition runs LA-k on the bisection in place.
func Partition(b *partition.Bisection, cfg Config) (Result, error) {
	if cfg.K < 1 {
		return Result{}, fmt.Errorf("la: lookahead K=%d, want ≥ 1", cfg.K)
	}
	if err := cfg.Balance.Validate(); err != nil {
		return Result{}, err
	}
	e := newEngine(b, cfg)
	out := moves.Run(e.loop(), cfg.MaxPasses, cfg.Tracer, cfg.TraceRun, nil)
	return Result{
		Sides:   b.Sides(),
		CutCost: b.CutCost(),
		CutNets: b.CutNets(),
		Passes:  out.Passes,
		Moves:   out.Moves,
	}, nil
}

// engine is LA's NodePolicy.
type engine struct {
	b      *partition.Bisection
	cfg    Config
	locked []bool
	// lockedPins[s][e] counts locked pins of net e on side s this pass.
	lockedPins [2][]int32
	vec        [][]float64 // per node: k-element gain vector
	key        []float64   // lexicographic encoding of vec
	base       float64     // encoding radix = 2*maxDeg+3
	maxDeg     int
	nbrScratch []bool
	nbrBuf     []int
	trees      [2]moves.Container
	l          *moves.Loop
	// updateAll (tests only) disables the relevant-net filter so the
	// exactness of the filter can be checked against full recomputation.
	updateAll bool
	// selfCheck (tests only) verifies after every move that no unlocked
	// node's stored gain vector is stale.
	selfCheck bool
	checkErr  error
}

func newEngine(b *partition.Bisection, cfg Config) *engine {
	h := b.H
	n := h.NumNodes()
	e := &engine{
		b:          b,
		cfg:        cfg,
		locked:     make([]bool, n),
		vec:        make([][]float64, n),
		key:        make([]float64, n),
		nbrScratch: make([]bool, n),
	}
	e.lockedPins[0] = make([]int32, h.NumNets())
	e.lockedPins[1] = make([]int32, h.NumNets())
	flat := make([]float64, n*cfg.K)
	for u := 0; u < n; u++ {
		e.vec[u] = flat[u*cfg.K : (u+1)*cfg.K]
		if d := h.Degree(u); d > e.maxDeg {
			e.maxDeg = d
		}
	}
	e.base = float64(2*e.maxDeg + 3)
	return e
}

// loop lazily binds the policy to its pass loop (tests construct engines
// directly and call runPass).
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
// moves.Run).
func (e *engine) runPass() (float64, int) {
	gmax, steps, _ := e.loop().RunPass()
	return gmax, steps
}

// computeVec fills vec[u] from the current pass state.
func (e *engine) computeVec(u int) {
	h := e.b.H
	s := e.b.Side(u)
	t := 1 - s
	v := e.vec[u]
	for i := range v {
		v[i] = 0
	}
	k := e.cfg.K
	for _, nt32 := range h.NetsOf(u) {
		nt := int(nt32)
		c := h.NetCost(nt)
		// Positive term: net freed from side s after (unlocked others) more
		// moves; impossible if a locked pin holds it on s.
		if e.lockedPins[s][nt] == 0 {
			others := e.b.PinCount(s, nt) - 1 // unlocked others (u unlocked)
			if others < k {
				v[others] += c
			}
		}
		// Negative term: moving u forfeits freeing the net from side t,
		// which would have taken (unlocked pins on t) moves.
		if e.lockedPins[t][nt] == 0 {
			cnt := e.b.PinCount(t, nt)
			if cnt < k {
				v[cnt] -= c
			}
		}
	}
	// Lexicographic encoding: each element lies in [−maxDeg, maxDeg] for
	// unit costs; shift into [1, base−2] digits so the packed key preserves
	// vector order. Non-unit costs are handled by rounding to the nearest
	// digit, adequate because LA's published form assumes unit costs.
	key := 0.0
	for _, g := range v {
		d := g + float64(e.maxDeg) + 1
		if d < 0 {
			d = 0
		}
		if d > e.base-1 {
			d = e.base - 1
		}
		key = key*e.base + d
	}
	e.key[u] = key
}

// Algo implements moves.NodePolicy.
func (e *engine) Algo() string { return "la" }

// Key implements moves.NodePolicy.
func (e *engine) Key(u int) float64 { return e.key[u] }

// BeginPass implements moves.NodePolicy: clear the binding counters,
// recompute every vector and fill one AVL container per side.
func (e *engine) BeginPass() [2]moves.Container {
	n := e.b.H.NumNodes()
	for s := 0; s < 2; s++ {
		for i := range e.lockedPins[s] {
			e.lockedPins[s][i] = 0
		}
	}
	e.trees = [2]moves.Container{
		moves.WrapTree(ds.NewAVLTree(n)),
		moves.WrapTree(ds.NewAVLTree(n)),
	}
	for u := 0; u < n; u++ {
		e.locked[u] = false
		e.computeVec(u)
		e.trees[e.b.Side(u)].Insert(u, e.key[u])
	}
	return e.trees
}

// MoveLock implements moves.NodePolicy: move u, bump its nets' binding
// counters on its new side, then recompute the vectors of unlocked pins
// of the affected relevant nets.
func (e *engine) MoveLock(u int) float64 {
	h := e.b.H
	s := e.b.Side(u)
	e.locked[u] = true
	imm := e.b.Move(u)
	// u is now locked on side 1−s.
	for _, nt := range h.NetsOf(u) {
		e.lockedPins[1-s][nt]++
	}
	// Recompute vectors of unlocked pins of the affected nets — but
	// only nets whose contribution profile can actually change: a net
	// whose unlocked pin counts exceed K on both sides (or that was
	// already locked there) contributes to no vector level, so moving
	// one of its pins is invisible to LA-K. This keeps per-move cost
	// bounded on circuits with large hub nets without changing any
	// gain vector.
	e.nbrBuf = e.nbrBuf[:0]
	u32 := int32(u)
	for _, nt := range h.NetsOf(u) {
		if !e.updateAll && !e.relevantNet(int(nt), 1-s) {
			continue
		}
		for _, v := range h.Net(int(nt)) {
			if v != u32 && !e.locked[v] && !e.nbrScratch[v] {
				e.nbrScratch[v] = true
				e.nbrBuf = append(e.nbrBuf, int(v))
			}
		}
	}
	for _, v := range e.nbrBuf {
		e.nbrScratch[v] = false
		e.computeVec(v)
		e.trees[e.b.Side(v)].Update(v, e.key[v])
	}
	if e.selfCheck && e.checkErr == nil {
		for v := 0; v < e.b.H.NumNodes(); v++ {
			if e.locked[v] {
				continue
			}
			old := e.key[v]
			e.computeVec(v)
			if e.key[v] != old {
				e.checkErr = fmt.Errorf("la: node %d has stale key %g, fresh %g after moving %d", v, old, e.key[v], u)
				break
			}
		}
	}
	return imm
}

// VectorsWithLocks computes the LA-k gain vectors of every unlocked node
// for the given bisection, treating the marked nodes as locked (their nets
// get infinite binding numbers on their side). Locked nodes get a nil
// vector. Exported for analysis and for reproducing the paper's Figure 1.
func VectorsWithLocks(b *partition.Bisection, locked []bool, k int) [][]float64 {
	e := newEngine(b, Config{K: k, Balance: partition.Exact5050()})
	for u, l := range locked {
		if !l {
			continue
		}
		e.locked[u] = true
		for _, nt := range b.H.NetsOf(u) {
			e.lockedPins[b.Side(u)][nt]++
		}
	}
	out := make([][]float64, b.H.NumNodes())
	for u := range out {
		if locked[u] {
			continue
		}
		e.computeVec(u)
		out[u] = append([]float64(nil), e.vec[u]...)
	}
	return out
}

// relevantNet reports (conservatively, evaluated after the move of a pin
// to side t) whether net nt can contribute to any node's gain vector at
// any level ≤ K, now or just before the move. Generous +3 margins cover
// the count and first-lock transitions.
func (e *engine) relevantNet(nt int, t uint8) bool {
	k := int32(e.cfg.K)
	for s := uint8(0); s < 2; s++ {
		if e.lockedPins[s][nt] == 0 && int32(e.b.PinCount(s, nt)) <= k+2 {
			return true
		}
	}
	// The move may have placed the first lock on side t, killing terms
	// that existed before it.
	return e.lockedPins[t][nt] == 1 && int32(e.b.PinCount(t, nt)) <= k+3
}
