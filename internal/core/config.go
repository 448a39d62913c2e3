// Package core implements PROP, the probability-based min-cut bipartitioner
// of Dutt & Deng (DAC 1996) — the primary contribution of the paper this
// repository reproduces.
//
// PROP associates with each node u a probability p(u) that u will actually
// be moved to the other side in the current pass, and computes for every
// node a probabilistic gain g(u) = Σ_net g_net(u) using Eqns. 2–6 of the
// paper. Gains and probabilities are mutually refined for a fixed number of
// iterations before moves begin; moves then proceed FM-style (lock, record
// immediate gain, maximum-prefix rollback) but are *ordered by the
// probabilistic gain*, which encodes global/future information that FM's
// and LA's local gains miss.
package core

import (
	"fmt"

	"prop/internal/obs"
	"prop/internal/partition"
)

// InitMethod selects how node probabilities are seeded at the start of a
// pass (paper §3: "blind" uniform p_init vs. deterministic-gain based).
type InitMethod int

const (
	// InitBlind assigns every node probability PInit.
	InitBlind InitMethod = iota
	// InitDeterministic derives initial probabilities from the FM
	// deterministic gains (Eqn. 1) through the probability function.
	InitDeterministic
)

// String implements fmt.Stringer.
func (m InitMethod) String() string {
	switch m {
	case InitBlind:
		return "blind"
	case InitDeterministic:
		return "deterministic"
	}
	return fmt.Sprintf("InitMethod(%d)", int(m))
}

// Config holds PROP's tunables. The zero value is not valid; start from
// DefaultConfig, which carries the exact parameter set used for every
// experiment in the paper (§4): p_init = p_max = 0.95, p_min = 0.4, linear
// probability function, g_up = 1, g_lo = −1, two refinement iterations,
// top-5 contender refresh.
type Config struct {
	Balance partition.Balance

	// Probability function parameters (§3.2): node probabilities are
	// clamped to [PMin, PMax]; gains ≥ GUp map to PMax, gains < GLo map to
	// PMin, linear in between.
	PMin, PMax float64
	GLo, GUp   float64

	// PInit is the uniform seed probability for InitBlind.
	PInit float64
	// Init selects the probability seeding method.
	Init InitMethod

	// Refinements is the number of gain↔probability fixpoint iterations
	// before moves start (paper uses 2).
	Refinements int

	// TopK is how many top-ranked nodes per side get their gains freshly
	// recomputed after every move (§3.4, "say, five").
	TopK int

	// MaxPasses bounds improvement passes; 0 = run until G_max ≤ 0.
	MaxPasses int

	// Tracer, when non-nil, receives per-pass (and, at obs.LevelMove,
	// per-move) trace events. Tracing is observation-only: it never
	// changes the computed partition, and a nil Tracer costs one
	// predicated branch per pass — no closures, no allocations.
	Tracer *obs.Tracer
	// TraceRun labels emitted events with this multi-start run index.
	TraceRun int
}

// DefaultConfig returns the paper's experimental parameter set with the
// given balance criterion.
func DefaultConfig(bal partition.Balance) Config {
	return Config{
		Balance:     bal,
		PMin:        0.4,
		PMax:        0.95,
		GLo:         -1,
		GUp:         1,
		PInit:       0.95,
		Init:        InitBlind,
		Refinements: 2,
		TopK:        5,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Balance.Validate(); err != nil {
		return err
	}
	if !(c.PMin > 0 && c.PMin <= c.PMax && c.PMax <= 1) {
		return fmt.Errorf("core: need 0 < PMin ≤ PMax ≤ 1, got (%g, %g); PMin must be > 0 (§3.2)", c.PMin, c.PMax)
	}
	if c.GLo >= c.GUp {
		return fmt.Errorf("core: need GLo < GUp, got (%g, %g)", c.GLo, c.GUp)
	}
	if c.Init == InitBlind && !(c.PInit > 0 && c.PInit <= 1) {
		return fmt.Errorf("core: PInit %g out of (0, 1]", c.PInit)
	}
	if c.Refinements < 0 {
		return fmt.Errorf("core: Refinements %d < 0", c.Refinements)
	}
	if c.TopK < 0 {
		return fmt.Errorf("core: TopK %d < 0", c.TopK)
	}
	return nil
}

// Probability is the monotonically increasing map f from gains to node
// probabilities (§3.2): the paper's linear function with thresholds.
func (c Config) Probability(gain float64) float64 {
	switch {
	case gain >= c.GUp:
		return c.PMax
	case gain < c.GLo:
		return c.PMin
	default:
		return c.PMin + (gain-c.GLo)/(c.GUp-c.GLo)*(c.PMax-c.PMin)
	}
}
