package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"sync/atomic"
	"testing"
	"time"

	"prop"
	"prop/internal/gen"
)

func TestInputsDeterministic(t *testing.T) {
	a, err := suiteCircuits()
	if err != nil {
		t.Fatal(err)
	}
	b, err := suiteCircuits()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(gen.Table1()) {
		t.Fatalf("%d circuits, want %d", len(a), len(gen.Table1()))
	}
	for i, spec := range gen.Table1() {
		if a[i].n.Fingerprint() != b[i].n.Fingerprint() {
			t.Errorf("%s: two generations differ", a[i].name)
		}
		clone, err := gen.SuiteCircuit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if a[i].n.Fingerprint() != clone.H.Fingerprint() {
			t.Errorf("%s: not the canonical Table-1 clone", a[i].name)
		}
	}

	s1, err := serveInputs()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := serveInputs()
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1 {
		if s1[i].n.Fingerprint() != s2[i].n.Fingerprint() || s1[i].ecoNet.Fingerprint() != s2[i].ecoNet.Fingerprint() ||
			!bytes.Equal(s1[i].body, s2[i].body) {
			t.Errorf("%s: two generations differ in netlist, ECO or request body", s1[i].name)
		}
	}

	fp := func() uint64 {
		var buf bytes.Buffer
		if err := gen.WriteScaleHGR(&buf, gen.ScaleParams{Nodes: scaleNodes, Seed: scaleSeed}); err != nil {
			t.Fatal(err)
		}
		n, err := prop.ReadHGR(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return n.Fingerprint()
	}
	if fp() != fp() {
		t.Error("two generations of the scale netlist differ")
	}
}

// benchmarkFile mirrors the keys of BENCHMARK.json this package must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestMetricNamesAndBenchmarkFile(t *testing.T) {
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !metricName.MatchString(d.name) || len(d.name) > 64 {
				t.Errorf("metric name %q", d.name)
			}
			if seen[d.name] {
				t.Errorf("metric %q declared twice", d.name)
			}
			seen[d.name] = true
			if !unit.MatchString(d.unit) {
				t.Errorf("metric %s: unit %q", d.name, d.unit)
			}
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("metric %s: better %q", d.name, d.better)
			}
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, perfbench %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, perfbench %q", i, w.Name, workloads[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, perfbench %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, perfbench %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, perfbench %+v", i, m, d)
		}
	}
}

func TestTailPercentileRule(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n          int
		value      float64
		percentile float64
		beyond     int
	}{
		{2000, 1980, 0.99, 20}, // p99 proper: 20 samples beyond
		{1000, 990, 0.99, 10},  // exactly ten beyond
		{999, 989, 989.0 / 999, 10},
		{500, 490, 0.98, 10}, // falls back to p98
		{11, 1, 1.0 / 11, 10},
		{5, 5, 1, 0}, // too few: the maximum
		{1, 1, 1, 0},
	} {
		got := tailPercentile(ramp(tc.n), 0.99)
		if got.Value != tc.value || got.Samples != tc.n || got.Beyond != tc.beyond ||
			got.Percentile != tc.percentile {
			t.Errorf("n=%d: got %+v, want value %v percentile %v beyond %d",
				tc.n, got, tc.value, tc.percentile, tc.beyond)
		}
		if got.Beyond < minBeyond && tc.n > minBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported tail", tc.n, got.Beyond)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestTailIndependentOfSweepCount: the suite's tail is taken over each
// call's median across sweeps, so fitting another sweep into a run (a
// faster program) leaves the reported percentile and value unchanged.
func TestTailIndependentOfSweepCount(t *testing.T) {
	const calls = 64
	sweeps := func(scales ...float64) [][]float64 {
		var out [][]float64
		for _, f := range scales {
			s := make([]float64, calls)
			for j := range s {
				s[j] = f * float64((j*37)%calls+1) // calls in no sorted order
			}
			out = append(out, s)
		}
		return out
	}
	three := tailPercentile(perCallMedians(sweeps(1.1, 0.9, 1)), 0.99)
	four := tailPercentile(perCallMedians(sweeps(1.1, 0.9, 1, 1)), 0.99)
	if three != four {
		t.Fatalf("3 sweeps give %+v, 4 sweeps %+v", three, four)
	}
	want := tail{Value: 54, Percentile: 54.0 / calls, Samples: calls, Beyond: minBeyond}
	if three != want {
		t.Errorf("got %+v, want %+v", three, want)
	}
}

func TestClosedLoopCountsRefusalsAndTransportErrors(t *testing.T) {
	var n atomic.Int64
	refuse := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%2 == 0 {
			w.WriteHeader(http.StatusTooManyRequests)
		} else {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	}))
	defer refuse.Close()
	gone := httptest.NewServer(http.NotFoundHandler())
	goneURL := gone.URL
	gone.Close()

	hc := &http.Client{Timeout: 5 * time.Second}
	for _, url := range []string{refuse.URL, goneURL} {
		samples, _ := closedLoop(2, 50*time.Millisecond, func(c, i int) sample {
			_, _, err := post(context.Background(), hc, url+"/v1/partition", "t0", []byte("{}"))
			return sample{kind: "cold", err: err}
		})
		if len(samples) == 0 {
			t.Fatalf("%s: no requests issued", url)
		}
		rep := newReport()
		if lat, _, _ := tally(rep, samples); len(lat) != 0 {
			t.Errorf("%s: %d failed requests reported latencies", url, len(lat))
		}
		if rep.failed != rep.attempted || rep.attempted != len(samples) {
			t.Errorf("%s: %d of %d attempts counted as failed", url, rep.failed, rep.attempted)
		}
	}
	if n.Load() < 2 {
		t.Errorf("refusing server saw %d requests, want both 429 and 503", n.Load())
	}
}

func TestHostSpeedCalibration(t *testing.T) {
	// The calibration work is fixed: graphs from one seed, passed alike,
	// end in the same state.
	a, b := newSpeedGraph(2000, 2000, 3), newSpeedGraph(2000, 2000, 3)
	pa, pb := 0, 0
	for i := 0; i < 3; i++ {
		pa, pb = a.pass(5000, pa), b.pass(5000, pb)
	}
	if pa != pb || !bytes.Equal(a.side, b.side) || !reflect.DeepEqual(a.gain, b.gain) || !reflect.DeepEqual(a.cnt, b.cnt) {
		t.Fatal("two passes over graphs of the same seed differ")
	}

	h := newHostSpeed(2)
	h.calibrate()
	h.calibrate()
	if len(h.chunks) != 2*speedChunks {
		t.Fatalf("%d chunk times after two calibrations, want %d", len(h.chunks), 2*speedChunks)
	}
	for _, c := range h.chunks {
		if c <= 0 {
			t.Fatalf("chunk time %v", c)
		}
	}

	// A factor is the median chunk time since a mark over the reference.
	h.chunks = []float64{3 * speedRefS, speedRefS, 2 * speedRefS, 4 * speedRefS}
	if got := h.factorSince(0); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("factorSince(0) %v, want 2.5", got)
	}
	if got := h.factorSince(2); math.Abs(got-3) > 1e-9 {
		t.Errorf("factorSince(2) %v, want 3", got)
	}

	// Without a calibration, call times no chunk.
	var none *hostSpeed
	none.chunk()
}
