package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// metricName is the shape every reported metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its value. Names are checked against
// metricName when the result line is printed.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

func (m metrics) validate() error {
	for name, v := range m {
		if !metricName.MatchString(name) {
			return fmt.Errorf("metric name %q does not match %s", name, metricName)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	return nil
}

// median returns the middle value of xs (the mean of the two middle ones
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tail is a latency tail as reported: the percentile actually used and the
// sample count it rests on.
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
	Beyond     int     `json:"beyond"`
}

// tailPercentile reports the want-th percentile (e.g. 0.99) of xs by
// nearest rank when at least minBeyond samples lie above it. With fewer
// samples it falls back to the highest percentile that still has
// minBeyond samples beyond it, and to the maximum when even that does not
// exist (fewer than minBeyond+1 samples). The returned tail says which
// percentile was used, over how many samples, and how many lie beyond.
func tailPercentile(xs []float64, want float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// Nearest rank: the value at 1-based rank ceil(q·n) has n−rank
	// samples beyond it.
	rank := int(math.Ceil(want * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		rank = n - minBeyond
	}
	if rank < 1 {
		rank = n
	}
	return tail{
		Value:      s[rank-1],
		Percentile: float64(rank) / float64(n),
		Samples:    n,
		Beyond:     n - rank,
	}
}

// perCallMedians takes sweeps of the same calls in the same order and
// returns each call's median over the sweeps. A tail taken over these is
// one fixed statistic however many sweeps fit into a run: a faster program
// fits more sweeps, which would otherwise move the rank a pooled tail uses
// from one call type to another.
func perCallMedians(sweeps [][]float64) []float64 {
	if len(sweeps) == 0 {
		return nil
	}
	out := make([]float64, len(sweeps[0]))
	col := make([]float64, 0, len(sweeps))
	for j := range out {
		col = col[:0]
		for _, s := range sweeps {
			if j < len(s) { // a sweep with a failed call is shorter
				col = append(col, s[j])
			}
		}
		out[j] = median(col)
	}
	return out
}

// geomean is the geometric mean of xs; any non-positive entry yields 0.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
