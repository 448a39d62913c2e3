package moves

import (
	"math/rand"
	"testing"

	"prop/internal/hypergraph"
	"prop/internal/partition"
)

func localTestGraph(t *testing.T, n, nets, seed int) *hypergraph.Hypergraph {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(seed)))
	b := hypergraph.NewBuilder()
	b.EnsureNodes(n)
	for e := 0; e < nets; e++ {
		sz := 2 + rng.Intn(4)
		pins := make([]int, 0, sz)
		for len(pins) < sz {
			pins = append(pins, rng.Intn(n))
		}
		if err := b.AddNet("", 1, pins...); err != nil {
			t.Fatal(err)
		}
	}
	return b.MustBuild()
}

// recount computes the cut of sides on h from scratch.
func recount(h *hypergraph.Hypergraph, sides []uint8) float64 {
	cut := 0.0
	for e := 0; e < h.NumNets(); e++ {
		var c [2]int
		for _, p := range h.Net(e) {
			c[sides[p]]++
		}
		if c[0] > 0 && c[1] > 0 {
			cut += h.NetCost(e)
		}
	}
	return cut
}

func TestLocalizedRefineImprovesAndTracksCut(t *testing.T) {
	h := localTestGraph(t, 120, 200, 9)
	bal := partition.B4555()
	rng := rand.New(rand.NewSource(2))
	sides := partition.RandomSides(h, bal, rng)
	var maxW, minW int64 = 1, h.NodeWeight(0)
	for u := 0; u < h.NumNodes(); u++ {
		if w := h.NodeWeight(u); w > maxW {
			maxW = w
		}
		minW = min(minW, h.NodeWeight(u))
	}
	l := NewLocalized(h, bal, maxW, minW, sides, nil, nil)
	start := l.CutCost()
	if got := recount(h, sides); got != start {
		t.Fatalf("initial cut %g, recount %g", start, got)
	}
	for u := 0; u < h.NumNodes(); u++ {
		l.Seed(u)
	}
	out := l.Refine(0)
	if out.Passes == 0 {
		t.Fatal("Refine made no passes")
	}
	end := l.CutCost()
	if end > start {
		t.Fatalf("localized refinement worsened the cut: %g -> %g", start, end)
	}
	if got := recount(h, sides); got != end {
		t.Fatalf("incremental cut %g diverged from recount %g", end, got)
	}
	// Side weights must match a from-scratch sum and stay inside the
	// slack-widened window.
	var w0, total int64
	for u := 0; u < h.NumNodes(); u++ {
		total += h.NodeWeight(u)
		if sides[u] == 0 {
			w0 += h.NodeWeight(u)
		}
	}
	sw := l.SideWeights()
	if sw[0] != w0 || sw[0]+sw[1] != total {
		t.Fatalf("side weights %v, want w0=%d total=%d", sw, w0, total)
	}
	if !bal.FeasibleWithSlack(sw[0], total, maxW) {
		t.Fatalf("refined sides infeasible: %v of %d", sw, total)
	}
	l.Release()
}

func TestLocalizedOnContractedMatchesRecount(t *testing.T) {
	h := localTestGraph(t, 80, 140, 4)
	c, err := hypergraph.NewContracted(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Contract a handful of random alive pairs.
	rng := rand.New(rand.NewSource(6))
	for k := 0; k < 30; k++ {
		var alive []int32
		for u := 0; u < c.NumNodes(); u++ {
			if c.Alive(u) {
				alive = append(alive, int32(u))
			}
		}
		u := alive[rng.Intn(len(alive))]
		v := alive[rng.Intn(len(alive))]
		if u == v {
			continue
		}
		c.Contract(u, v)
	}
	bal := partition.B4555()
	sides := make([]uint8, c.NumNodes())
	var w [2]int64
	for u := 0; u < c.NumNodes(); u++ {
		if !c.Alive(u) {
			continue
		}
		s := uint8(0)
		if w[1] < w[0] {
			s = 1
		}
		sides[u] = s
		w[s] += c.NodeWeight(u)
	}
	l := NewLocalized(c, bal, c.MaxBaseNodeWeight(), c.MinBaseNodeWeight(), sides, c.Alive, nil)
	start := l.CutCost()
	// Reference: active-pin recount on the view.
	ref := 0.0
	for e := 0; e < c.NumNets(); e++ {
		if c.NetSize(e) < 2 {
			continue
		}
		var cc [2]int
		for _, p := range c.Net(e) {
			cc[sides[p]]++
		}
		if cc[0] > 0 && cc[1] > 0 {
			ref += c.NetCost(e)
		}
	}
	if start != ref {
		t.Fatalf("initial contracted cut %g, recount %g", start, ref)
	}
	for u := 0; u < c.NumNodes(); u++ {
		if c.Alive(u) {
			l.Seed(u)
		}
	}
	l.Refine(0)
	end := l.CutCost()
	if end > start {
		t.Fatalf("cut worsened on contracted view: %g -> %g", start, end)
	}
	ref = 0.0
	for e := 0; e < c.NumNets(); e++ {
		if c.NetSize(e) < 2 {
			continue
		}
		var cc [2]int
		for _, p := range c.Net(e) {
			cc[sides[p]]++
		}
		if cc[0] > 0 && cc[1] > 0 {
			ref += c.NetCost(e)
		}
	}
	if end != ref {
		t.Fatalf("incremental cut %g diverged from recount %g", end, ref)
	}
	l.Release()
}

func TestLocalizedUncontractedSeeding(t *testing.T) {
	// Contract, assign sides at the coarse level, then uncontract through
	// Uncontracted: the tracked cut must equal a recount after every pop
	// (uncontraction with side inheritance is cut-neutral).
	h := localTestGraph(t, 60, 100, 11)
	c, err := hypergraph.NewContracted(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for k := 0; k < 40; k++ {
		var alive []int32
		for u := 0; u < c.NumNodes(); u++ {
			if c.Alive(u) {
				alive = append(alive, int32(u))
			}
		}
		if len(alive) < 2 {
			break
		}
		u := alive[rng.Intn(len(alive))]
		v := alive[rng.Intn(len(alive))]
		if u != v {
			c.Contract(u, v)
		}
	}
	sides := make([]uint8, c.NumNodes())
	for u := 0; u < c.NumNodes(); u++ {
		if c.Alive(u) {
			sides[u] = uint8(rng.Intn(2))
		}
	}
	l := NewLocalized(c, partition.B4555(), c.MaxBaseNodeWeight(), c.MinBaseNodeWeight(), sides, c.Alive, nil)
	caseA := make([]int32, 0, 32)
	for c.Depth() > 0 {
		var m hypergraph.Memento
		m, caseA = c.Uncontract(caseA[:0])
		l.Uncontracted(int(m.U), int(m.V), caseA)
		want := 0.0
		for e := 0; e < c.NumNets(); e++ {
			if c.NetSize(e) < 2 {
				continue
			}
			var cc [2]int
			for _, p := range c.Net(e) {
				cc[sides[p]]++
			}
			if cc[0] > 0 && cc[1] > 0 {
				want += c.NetCost(e)
			}
		}
		if l.CutCost() != want {
			t.Fatalf("after pop at depth %d: tracked cut %g, recount %g", c.Depth(), l.CutCost(), want)
		}
	}
	l.Refine(0)
	if got := recount(h, sides); got != l.CutCost() {
		t.Fatalf("final cut %g diverged from recount %g", l.CutCost(), got)
	}
}

// TestLocalizedSidePrecheckExact checks that the side pre-check in
// selectBest only ever skips a side whose scan would find nothing. It
// drives side 0's weight across both slack-widened bounds and past them
// on weighted hierarchies, under both balance criteria, at every level
// of an unwind that starts with the base graph's lightest node merged
// into a heavier cluster. Once uncontraction revives that node, a bound
// taken from the lightest weight alive at construction would skip a side
// the node can still leave, and the scan here would find it.
func TestLocalizedSidePrecheckExact(t *testing.T) {
	for seed := 1; seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		const n = 70
		b := hypergraph.NewBuilder()
		light := rng.Intn(n)
		for u := 0; u < n; u++ {
			w := int64(2 + rng.Intn(5))
			if u == light {
				w = 1
			}
			b.AddNode("", w)
		}
		for e := 0; e < 120; e++ {
			sz := 2 + rng.Intn(4)
			pins := make([]int, 0, sz)
			for len(pins) < sz {
				pins = append(pins, rng.Intn(n))
			}
			if err := b.AddNet("", float64(1+rng.Intn(3)), pins...); err != nil {
				t.Fatal(err)
			}
		}
		h := b.MustBuild()
		c, err := hypergraph.NewContracted(h, nil)
		if err != nil {
			t.Fatal(err)
		}
		// The first contraction buries the lightest node in a cluster; it
		// sits at the bottom of the memento stack, so it is undone last.
		c.Contract(int32((light+1)%n), int32(light))
		for c.AliveCount() > 12 {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u != v && c.Alive(int(u)) && c.Alive(int(v)) {
				c.Contract(u, v)
			}
		}
		// Unwind partway before the refiner is built.
		caseA := make([]int32, 0, 32)
		for c.Depth() > 30 {
			_, caseA = c.Uncontract(caseA[:0])
		}
		sides := make([]uint8, n)
		minAlive := int64(-1)
		for u := 0; u < n; u++ {
			if c.Alive(u) {
				sides[u] = uint8(rng.Intn(2))
				if w := c.NodeWeight(u); minAlive < 0 || w < minAlive {
					minAlive = w
				}
			}
		}
		if got := c.MinBaseNodeWeight(); got != 1 {
			t.Fatalf("seed %d: MinBaseNodeWeight %d, want 1", seed, got)
		}
		if minAlive <= 1 {
			t.Fatalf("seed %d: lightest alive weight %d at construction; the lightest base node should still be merged", seed, minAlive)
		}
		l := NewLocalized(c, partition.Exact5050(), c.MaxBaseNodeWeight(), c.MinBaseNodeWeight(), sides, c.Alive, nil)
		var skipped, scanned int
		for {
			for _, bal := range []partition.Balance{partition.Exact5050(), partition.B4555()} {
				s, f := sweepSidePrecheck(t, l, c, bal)
				skipped += s
				scanned += f
			}
			if c.Depth() == 0 {
				break
			}
			var m hypergraph.Memento
			m, caseA = c.Uncontract(caseA[:0])
			l.Uncontracted(int(m.U), int(m.V), caseA)
		}
		if skipped == 0 || scanned == 0 {
			t.Fatalf("seed %d: sweep skipped %d sides and found moves on %d: the window edges were not exercised", seed, skipped, scanned)
		}
		l.Release()
	}
}

// sweepSidePrecheck fills both heaps with every alive node, then sets side
// 0's weight to each value from well below the lower bound to well above
// the upper one. Wherever canMoveFrom rules a side out, a full scan of
// that side's heap must find no feasible node. It returns how many sides
// were skipped and how many scans found a node, and restores the side
// weights and the balance.
func sweepSidePrecheck(t *testing.T, l *Localized, c *hypergraph.Contracted, bal partition.Balance) (skipped, found int) {
	t.Helper()
	l.heap[0].Clear()
	l.heap[1].Clear()
	maxW := int64(0)
	for u := 0; u < c.NumNodes(); u++ {
		if c.Alive(u) {
			l.heap[l.side[u]].Insert(u, l.gain(u))
			maxW = max(maxW, c.NodeWeight(u))
		}
	}
	saveW, saveBal := l.sideW, l.Bal
	l.Bal = bal
	lo, hi := bal.Bounds(l.total)
	for w0 := lo - l.Slack - maxW - 1; w0 <= hi+l.Slack+maxW+1; w0++ {
		l.sideW = [2]int64{w0, l.total - w0}
		for s := uint8(0); s < 2; s++ {
			u, ok := l.firstFeasible(l.heap[s])
			if !l.canMoveFrom(s) {
				skipped++
				if ok {
					t.Fatalf("%v, side weights %v: pre-check skips side %d, but node %d (weight %d) can move",
						bal, l.sideW, s, u, l.G.NodeWeight(u))
				}
			} else if ok {
				found++
			}
		}
	}
	l.sideW, l.Bal = saveW, saveBal
	return skipped, found
}
