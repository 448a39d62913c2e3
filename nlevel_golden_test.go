package prop_test

import (
	"bytes"
	"testing"

	"prop"
	"prop/internal/gen"
)

// TestGoldenCutsNLevel pins the n-level multilevel path (ML Mode
// "nlevel") the same way the other engines pin theirs, and pins the
// V-cycle MLPROP results on the same circuits/seed alongside — the
// acceptance contract is twofold: existing V-cycle behavior stays
// bit-identical, and the n-level cut is never worse than the V-cycle cut
// on any of the golden five.
func TestGoldenCutsNLevel(t *testing.T) {
	cases := []struct {
		circuit string
		vcycle  golden
		nlevel  golden
	}{
		{"balu", golden{40, 0, 0xfcfd68f921f5e006}, golden{37, 0, 0x565bcda200439bf4}},
		{"struct", golden{34, 0, 0x3b8edd5d07c6765}, golden{23, 0, 0x8baf23f8a91b8a3a}},
		{"p2", golden{109, 0, 0x87c64ea070eb5157}, golden{103, 0, 0x80f50ceaa1df7897}},
		{"industry2", golden{480, 0, 0x537d2ad814ec3a18}, golden{443, 0, 0x151e0224aaa5b990}},
		{"gen600", golden{47, 0, 0xa962787709707676}, golden{45, 0, 0x772b41dfdc3aaab4}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.circuit, func(t *testing.T) {
			if testing.Short() && tc.circuit == "industry2" {
				t.Skip("short mode")
			}
			n := nlevelCircuit(t, tc.circuit)
			checkMode(t, n, nil, tc.vcycle)
			checkMode(t, n, &prop.MLParams{Mode: "nlevel"}, tc.nlevel)
			if tc.nlevel.cost > tc.vcycle.cost {
				t.Errorf("n-level cut %g worse than V-cycle's %g", tc.nlevel.cost, tc.vcycle.cost)
			}
		})
	}
}

// scaleGoldenNodes sizes the 50/50 scale golden and BenchmarkNLevelScale:
// large enough that localized refinement spends most moves with one side
// at its exact-balance bound, small enough to run in a few seconds.
const scaleGoldenNodes = 10000

// TestGoldenCutsNLevelScale5050 pins n-level ml-prop on a generated scale
// circuit at the default exact 50/50 balance, where localized refinement
// keeps hitting a side it cannot move off. That is the path the side
// pre-check in moves.Localized prunes; the pre-check must not change a
// single move.
func TestGoldenCutsNLevelScale5050(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	n := scaleNetlist(t, scaleGoldenNodes)
	for _, tc := range []struct {
		seed int64
		want golden
	}{
		{3, golden{408, 0, 0x79e05107976d62a4}},
		{7, golden{411, 0, 0xbd250fbe67394c7a}},
	} {
		res, err := prop.Partition(n, prop.Options{Algorithm: prop.AlgoMLPROP, Seed: tc.seed, ML: &prop.MLParams{Mode: "nlevel"}})
		if err != nil {
			t.Fatal(err)
		}
		if got := (golden{res.CutCost, res.BestRun, sideHash(res.Sides)}); got != tc.want {
			t.Errorf("seed %d: got {cost:%g best:%d hash:%#x}, want {cost:%g best:%d hash:%#x}",
				tc.seed, got.cost, got.bestRun, got.hash, tc.want.cost, tc.want.bestRun, tc.want.hash)
		}
		if cost, _, err := prop.Verify(n, res.Sides, prop.Options{}); err != nil || cost != res.CutCost {
			t.Errorf("seed %d: independent recount %g (err %v) vs reported %g", tc.seed, cost, err, res.CutCost)
		}
	}
}

// scaleNetlist returns the gen.GenerateScale circuit of the given size
// (generator seed 7, the BENCH_scale row's) as a Netlist, read back from
// its streamed .hgr form.
func scaleNetlist(tb testing.TB, nodes int) *prop.Netlist {
	tb.Helper()
	p := gen.ScaleParams{Nodes: nodes, Seed: 7}
	var buf bytes.Buffer
	if err := gen.WriteScaleHGR(&buf, p); err != nil {
		tb.Fatal(err)
	}
	n, err := prop.ReadHGR(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	h, err := gen.GenerateScale(p)
	if err != nil {
		tb.Fatal(err)
	}
	if h.Fingerprint() != n.Fingerprint() {
		tb.Fatal("streamed scale circuit differs from GenerateScale's")
	}
	return n
}

func nlevelCircuit(t *testing.T, name string) *prop.Netlist {
	t.Helper()
	if name == "gen600" {
		n, err := prop.Generate(prop.GenParams{Nodes: 600, Nets: 660, Pins: 2300, Seed: 41})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	n, err := prop.Benchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// checkMode mirrors check() for the single-run MLPROP engine: golden
// equality, an independent recount, and Parallel no-op bit-identity.
func checkMode(t *testing.T, n *prop.Netlist, ml *prop.MLParams, want golden) {
	t.Helper()
	res, err := prop.Partition(n, prop.Options{Algorithm: prop.AlgoMLPROP, Seed: 7, ML: ml})
	if err != nil {
		t.Fatal(err)
	}
	got := golden{res.CutCost, res.BestRun, sideHash(res.Sides)}
	if got != want {
		t.Errorf("got {cost:%g best:%d hash:%#x}, want {cost:%g best:%d hash:%#x}",
			got.cost, got.bestRun, got.hash, want.cost, want.bestRun, want.hash)
	}
	if cost, _, err := prop.Verify(n, res.Sides, prop.Options{}); err != nil || cost != res.CutCost {
		t.Errorf("independent recount %g (err %v) vs reported %g", cost, err, res.CutCost)
	}
	par, err := prop.Partition(n, prop.Options{Algorithm: prop.AlgoMLPROP, Seed: 7, ML: ml, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if pg := (golden{par.CutCost, par.BestRun, sideHash(par.Sides)}); pg != want {
		t.Errorf("Parallel=4: got {cost:%g best:%d hash:%#x}, want {cost:%g best:%d hash:%#x}",
			pg.cost, pg.bestRun, pg.hash, want.cost, want.bestRun, want.hash)
	}
}
