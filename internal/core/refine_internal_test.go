package core

import (
	"math/rand"
	"testing"

	"prop/internal/gen"
	"prop/internal/partition"
)

// newRefineEngine builds a pass engine over a fresh random bisection and
// runs seeding, leaving it one refine() away from comparable state.
func newRefineEngine(t *testing.T, cfg Config, seed int64) *passEngine {
	t.Helper()
	h := gen.MustGenerate(gen.Params{Nodes: 700, Nets: 770, Pins: 2700, Seed: 91})
	rng := rand.New(rand.NewSource(seed))
	b, err := partition.NewBisection(h, partition.RandomSides(h, cfg.Balance, rng))
	if err != nil {
		t.Fatal(err)
	}
	e := newPassEngine(b, cfg)
	e.calc.ResetLocks()
	e.seedProbabilities()
	return e
}

// TestRefineMatchesReference: the dirty-net incremental refine (exact
// per-net rebuilds, gains re-swept only for pins of dirty nets) must be
// bit-identical to the textbook formulation — every node swept and a full
// Rebuild after every iteration — in gains, probabilities and products.
func TestRefineMatchesReference(t *testing.T) {
	for _, refinements := range []int{1, 2, 4, 8} {
		for seed := int64(1); seed <= 4; seed++ {
			cfg := DefaultConfig(partition.Exact5050())
			cfg.Refinements = refinements

			e := newRefineEngine(t, cfg, seed)
			e.refine()

			r := newRefineEngine(t, cfg, seed)
			gain := make([]float64, r.b.H.NumNodes())
			for it := 0; it < cfg.Refinements; it++ {
				for u := range gain {
					gain[u] = r.calc.Gain(u)
				}
				for u := range gain {
					r.calc.P[u] = cfg.Probability(gain[u])
				}
				r.calc.Rebuild()
			}

			for u := range gain {
				if e.gain[u] != gain[u] {
					t.Fatalf("refinements=%d seed=%d: gain[%d] = %g, reference %g",
						refinements, seed, u, e.gain[u], gain[u])
				}
				if e.calc.P[u] != r.calc.P[u] {
					t.Fatalf("refinements=%d seed=%d: P[%d] = %g, reference %g",
						refinements, seed, u, e.calc.P[u], r.calc.P[u])
				}
			}
			for s := uint8(0); s < 2; s++ {
				for en := 0; en < e.b.H.NumNets(); en++ {
					if e.calc.Prod(s, en) != r.calc.Prod(s, en) {
						t.Fatalf("refinements=%d seed=%d: prod[%d][%d] = %g, reference %g",
							refinements, seed, s, en, e.calc.Prod(s, en), r.calc.Prod(s, en))
					}
				}
			}
		}
	}
}

// TestSweepGainsSubset: a subset sweep recomputes exactly the marked
// nodes' gains, matching a full sweep there and leaving the rest alone.
func TestSweepGainsSubset(t *testing.T) {
	cfg := DefaultConfig(partition.Exact5050())
	ref := newRefineEngine(t, cfg, 3)
	ref.sweepGains(nil)

	only := make([]bool, ref.b.H.NumNodes())
	for u := range only {
		only[u] = u%3 == 0
	}
	e := newRefineEngine(t, cfg, 3)
	for u := range e.gain {
		e.gain[u] = -123
	}
	e.sweepGains(only)
	for u := range e.gain {
		switch {
		case only[u] && e.gain[u] != ref.gain[u]:
			t.Fatalf("subset: gain[%d] = %g, want %g", u, e.gain[u], ref.gain[u])
		case !only[u] && e.gain[u] != -123:
			t.Fatalf("subset: unmarked gain[%d] overwritten", u)
		}
	}
}
