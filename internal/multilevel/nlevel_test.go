package multilevel

import (
	"testing"

	"prop/internal/cluster"
	"prop/internal/gen"
	"prop/internal/hypergraph"
	"prop/internal/partition"
)

// TestNLevelContract: the n-level mode produces a feasible partition with
// exact bookkeeping and a deep hierarchy (one level per contraction).
func TestNLevelContract(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 800, Nets: 860, Pins: 2950, Seed: 95})
	bal := partition.Exact5050()
	res, err := Partition(h, Config{Balance: bal, Mode: ModeNLevel, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Levels < 600 {
		t.Errorf("only %d n-level contractions for 800 nodes", res.Levels)
	}
	b, err := partition.NewBisection(h, res.Sides)
	if err != nil {
		t.Fatal(err)
	}
	if b.CutCost() != res.CutCost || b.CutNets() != res.CutNets {
		t.Errorf("reported (%g,%d), recount (%g,%d)", res.CutCost, res.CutNets, b.CutCost(), b.CutNets())
	}
	if !bal.FeasibleWithSlack(b.SideWeight(0), h.TotalNodeWeight(), b.MaxNodeWeight()) {
		t.Errorf("unbalanced: %d of %d", b.SideWeight(0), h.TotalNodeWeight())
	}
}

// TestNLevelDeterministic: fixed seed, fixed result, in both arena modes —
// and the in-place run must agree with the copy run bit for bit, since the
// hierarchy only ever reads the view.
func TestNLevelDeterministic(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 400, Nets: 430, Pins: 1500, Seed: 99})
	bal := partition.Exact5050()
	run := func(inPlace bool) Result {
		res, err := Partition(h, Config{Balance: bal, Mode: ModeNLevel, InPlace: inPlace, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(false), run(false)
	if a.CutCost != b.CutCost {
		t.Fatalf("copy-mode runs differ: %g vs %g", a.CutCost, b.CutCost)
	}
	c := run(true)
	if c.CutCost != a.CutCost {
		t.Fatalf("in-place run %g differs from copy run %g", c.CutCost, a.CutCost)
	}
	for u, s := range a.Sides {
		if c.Sides[u] != s {
			t.Fatalf("in-place side assignment diverges at node %d", u)
		}
	}
}

// TestNLevelInPlaceRestoresInput: after an in-place run the hypergraph is
// bit-identical to a pristine build — pin order included — so a cached
// hypergraph can be reused for the next job.
func TestNLevelInPlaceRestoresInput(t *testing.T) {
	p := gen.Params{Nodes: 500, Nets: 540, Pins: 1850, Seed: 97}
	h := gen.MustGenerate(p)
	pristine := gen.MustGenerate(p)
	if _, err := Partition(h, Config{Balance: partition.B4555(), Mode: ModeNLevel, InPlace: true, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("hypergraph corrupt after in-place run: %v", err)
	}
	for e := 0; e < h.NumNets(); e++ {
		got, want := h.Net(e), pristine.Net(e)
		if len(got) != len(want) {
			t.Fatalf("net %d size changed: %d vs %d", e, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("net %d pin order changed at slot %d", e, i)
			}
		}
	}
	for u := 0; u < h.NumNodes(); u++ {
		if h.NodeWeight(u) != pristine.NodeWeight(u) {
			t.Fatalf("node %d weight changed", u)
		}
	}
}

// TestNLevelComparableToVCycle: on a generated instance the n-level result
// must land in the same quality regime as the V-cycle — the acceptance gate
// proper (cut ≤ V-cycle on the golden five) runs in the facade golden suite;
// here we bound the internal driver loosely to catch wiring regressions
// without pinning a second set of goldens.
func TestNLevelComparableToVCycle(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 1000, Nets: 1080, Pins: 3700, Seed: 96})
	bal := partition.Exact5050()
	nl, err := Partition(h, Config{Balance: bal, Mode: ModeNLevel, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	vc, err := Partition(h, Config{Balance: bal, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if nl.CutCost > 1.5*vc.CutCost {
		t.Errorf("n-level cut %g far worse than V-cycle %g", nl.CutCost, vc.CutCost)
	}
}

// TestNLevelUnknownMode: a typo'd mode is an error, not a silent V-cycle.
func TestNLevelUnknownMode(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 100, Nets: 110, Pins: 380, Seed: 1})
	if _, err := Partition(h, Config{Balance: partition.Exact5050(), Mode: "zlevel"}); err == nil {
		t.Fatal("mode \"zlevel\" accepted")
	}
}

// TestNLevelBatchKnob: tiny batches refine after every pop and still
// converge; a one-batch unwind also works.
func TestNLevelBatchKnob(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 300, Nets: 330, Pins: 1100, Seed: 3})
	bal := partition.B4555()
	for _, batch := range []int{1, 1 << 20} {
		res, err := Partition(h, Config{Balance: bal, Mode: ModeNLevel, UncontractBatch: batch, Seed: 5})
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		b, err := partition.NewBisection(h, res.Sides)
		if err != nil {
			t.Fatal(err)
		}
		if !bal.FeasibleWithSlack(b.SideWeight(0), h.TotalNodeWeight(), b.MaxNodeWeight()) {
			t.Errorf("batch %d unbalanced: %d of %d", batch, b.SideWeight(0), h.TotalNodeWeight())
		}
	}
}

// TestNLevelArenaPoolReuse: across repeated n-level runs on the same pool
// path, the per-run allocation count must stay flat (pool hits, not fresh
// arenas). Guarded loosely — the assertion is about reuse, not an exact
// byte budget.
func TestNLevelArenaPoolReuse(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 400, Nets: 430, Pins: 1500, Seed: 12})
	pool := hypergraph.NewPool()
	run := func() {
		c, err := hypergraph.NewContracted(h, pool)
		if err != nil {
			t.Fatal(err)
		}
		if err := cluster.CoarsenInPlace(c, 40, 7, pool, nil, 0); err != nil {
			t.Fatal(err)
		}
		scratch := make([]int32, 0, 64)
		for c.Depth() > 0 {
			_, scratch = c.Uncontract(scratch[:0])
		}
		c.Release()
	}
	run() // warm-up populates the pool
	if raceEnabled {
		// Still exercise the warm (pool-hit) path for race coverage, but
		// skip the count assertion: race instrumentation inhibits inlining
		// and turns stack allocations into heap ones.
		run()
		t.Skip("allocation counts are inflated under the race detector")
	}
	allocs := testing.AllocsPerRun(5, run)
	// A cold hierarchy build allocates the arenas (~10 slices) plus pins
	// copies; warm runs should be pool hits aside from the Contracted shell
	// and per-round shuffles. 64 is far below cold cost (> 400 for this
	// size) while still catching a dropped Put.
	if allocs > 64 {
		t.Errorf("%.0f allocs per warm hierarchy run, want pool reuse (≤ 64)", allocs)
	}
}
