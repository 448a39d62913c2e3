package main

import (
	"math/rand"
	"sync"
	"time"
)

// hostSpeed measures how fast the host runs this process at the moment, by
// timing a fixed piece of work that runs no program code: chunks of an
// FM-style gain pass over a random hypergraph of perfbench's own, on as
// many goroutines at once as the workload uses (each on a graph of its
// own), so a chunk waits for the slower CPU just as a parallel call does.
// On a shared virtual host the same work takes 20–30% longer in some
// spells than in others, lasting seconds to minutes, and process CPU time
// moves with wall time, so it is the speed of every instruction that
// drifts. A run therefore times chunks around and between the work it
// measures — a calibration of speedChunks chunks before every set-up
// round, sweep, base round and closed-loop window and after the last, and
// one chunk before every partition call of a sweep — and reports each
// piece of work in seconds at a reference speed: raw seconds × speedRefS ÷
// the median of the chunk times taken around that piece. A change to the
// program cannot move the chunks, which share no code or data with it; the
// run record keeps the raw times and the factors next to the normalised
// ones.
type hostSpeed struct {
	gs     []*speedGraph
	pos    []int
	chunks []float64 // every chunk time of the run, in seconds
	points []float64 // each calibration's median chunk time, in ms
}

const (
	// speedRefS is a chunk's typical time on the reference host (a 2-vCPU
	// Intel Xeon virtual machine). It only fixes the unit: normalised
	// seconds are the seconds a host running a chunk in speedRefS takes.
	speedRefS = 0.006
	// speedChunks is how many chunks one calibration times.
	speedChunks = 16
	// speedSteps is the node visits of one chunk.
	speedSteps = 50000
	// speedNodes sizes the calibration hypergraph (as many nets as
	// nodes) like a mid-sized suite circuit, so its working set sits in
	// the same caches.
	speedNodes = 16000
)

// newHostSpeed builds the calibration for par goroutines.
func newHostSpeed(par int) *hostSpeed {
	h := &hostSpeed{pos: make([]int, par)}
	for w := 0; w < par; w++ {
		h.gs = append(h.gs, newSpeedGraph(speedNodes, speedNodes, int64(w+1)))
	}
	return h
}

// chunk times one chunk: a pass of speedSteps on every goroutine, until
// all have finished. A nil hostSpeed does nothing.
func (h *hostSpeed) chunk() {
	if h == nil {
		return
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := range h.gs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h.pos[w] = h.gs[w].pass(speedSteps, h.pos[w])
		}(w)
	}
	wg.Wait()
	h.chunks = append(h.chunks, time.Since(t0).Seconds())
}

// calibrate times speedChunks chunks in a row.
func (h *hostSpeed) calibrate() {
	for i := 0; i < speedChunks; i++ {
		h.chunk()
	}
	h.points = append(h.points, 1000*median(h.chunks[len(h.chunks)-speedChunks:]))
}

// mark is the position of the next chunk time, for factorSince.
func (h *hostSpeed) mark() int { return len(h.chunks) }

// factorSince is how much slower than the reference the host ran over the
// chunks timed since mark m: their median time over speedRefS. Raw times
// divided by it are times at reference speed.
func (h *hostSpeed) factorSince(m int) float64 { return median(h.chunks[m:]) / speedRefS }

// speedGraph is a random hypergraph in the dual CSR form the partitioners
// use, with a side per node, per-net side counts and per-node gains.
type speedGraph struct {
	netStart, pins, nodeStart, nets []int32
	side                            []uint8
	cnt                             [][2]int32
	gain                            []int32
	hist                            []int32
}

func newSpeedGraph(nodes, nets int, seed int64) *speedGraph {
	rng := rand.New(rand.NewSource(seed))
	g := &speedGraph{netStart: []int32{0}}
	deg := make([]int32, nodes)
	for e := 0; e < nets; e++ {
		// Mostly 2–3 pins with a tail to 6, drawn near a random centre
		// like the locality of a placed netlist.
		k := 2 + rng.Intn(2) + rng.Intn(2)*rng.Intn(4)
		base := rng.Intn(nodes)
		for i := 0; i < k; i++ {
			u := base + rng.Intn(64) - 32
			if u < 0 || u >= nodes {
				u = rng.Intn(nodes)
			}
			g.pins = append(g.pins, int32(u))
			deg[u]++
		}
		g.netStart = append(g.netStart, int32(len(g.pins)))
	}
	g.nodeStart = make([]int32, nodes+1)
	for u := 0; u < nodes; u++ {
		g.nodeStart[u+1] = g.nodeStart[u] + deg[u]
	}
	g.nets = make([]int32, len(g.pins))
	fill := append([]int32(nil), g.nodeStart[:nodes]...)
	for e := 0; e < nets; e++ {
		for _, u := range g.pins[g.netStart[e]:g.netStart[e+1]] {
			g.nets[fill[u]] = int32(e)
			fill[u]++
		}
	}
	g.side = make([]uint8, nodes)
	for u := range g.side {
		g.side[u] = uint8(rng.Intn(2))
	}
	g.cnt = make([][2]int32, nets)
	for e := 0; e < nets; e++ {
		for _, u := range g.pins[g.netStart[e]:g.netStart[e+1]] {
			g.cnt[e][g.side[u]]++
		}
	}
	g.gain = make([]int32, nodes)
	g.hist = make([]int32, 1024)
	return g
}

// pass visits steps nodes in a fixed stride from v: it computes each
// node's FM gain from the net side counts, buckets it, and moves the node
// when the gain is positive (and every fifth node regardless, so the pass
// never settles), updating the side counts and its neighbours' gains. It
// returns where the next pass continues.
func (g *speedGraph) pass(steps, v int) int {
	n := len(g.side)
	for i := 0; i < steps; i++ {
		v = (v + 7919) % n
		s := g.side[v]
		gain := int32(0)
		for _, e := range g.nets[g.nodeStart[v]:g.nodeStart[v+1]] {
			c := g.cnt[e]
			if c[1-s] == 0 {
				gain--
			}
			if c[s] == 1 {
				gain++
			}
		}
		g.gain[v] = gain
		g.hist[(gain+512)&1023]++
		if gain > 0 || i%5 == 0 {
			g.side[v] = 1 - s
			for _, e := range g.nets[g.nodeStart[v]:g.nodeStart[v+1]] {
				g.cnt[e][s]--
				g.cnt[e][1-s]++
				for _, u := range g.pins[g.netStart[e]:g.netStart[e+1]] {
					g.gain[u]++
				}
			}
		}
	}
	return v
}
