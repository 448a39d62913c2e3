package main

import (
	"bytes"
	"encoding/json"
	"sync"
	"time"

	"prop"
	"prop/internal/obs"
)

// layerTrace aggregates the program's existing trace events in memory:
// phase spans through the tracer's phase hook, pass and run_end events by
// decoding the JSONL lines the tracer writes to it. It never touches disk.
// One layerTrace may back many tracers (one per partition call); the hook
// and Write are safe for concurrent use.
type layerTrace struct {
	mu sync.Mutex

	// Phase tree, by span name. self is wall minus the time covered by
	// the span's direct children.
	wall  map[string]time.Duration
	self  map[string]time.Duration
	count map[string]int
	// checkpoint sums the "prop" spans whose parent is "uncoarsen": the
	// full-strength refinements the multilevel unwind runs.
	checkpoint  time.Duration
	checkpoints int
	// ended holds, per run and depth, finished spans not yet claimed by
	// their parent, which ends after them.
	ended map[int]map[int][]span

	// Pass and run events.
	passes, moves, kept int
	runBusy             time.Duration
	line                []byte

	// engineBusy sums the run spans of multi-start portfolio calls and
	// engineCap their wall × Options.Parallel: the engine's utilization.
	engineBusy, engineCap time.Duration
}

type span struct {
	name string
	wall time.Duration
}

func newLayerTrace() *layerTrace {
	return &layerTrace{
		wall:  map[string]time.Duration{},
		self:  map[string]time.Duration{},
		count: map[string]int{},
		ended: map[int]map[int][]span{},
	}
}

// tracer returns a pass-level tracer reporting into t.
func (t *layerTrace) tracer() *prop.Tracer {
	return prop.NewTracer(t, prop.TracePasses).WithPhaseHook(t.phase)
}

func (t *layerTrace) phase(p obs.Phase) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byDepth := t.ended[p.Run]
	if byDepth == nil {
		byDepth = map[int][]span{}
		t.ended[p.Run] = byDepth
	}
	var covered time.Duration
	for _, c := range byDepth[p.Depth+1] {
		covered += c.wall
		if c.name == "prop" && p.Name == "uncoarsen" {
			t.checkpoint += c.wall
			t.checkpoints++
		}
	}
	delete(byDepth, p.Depth+1)
	t.wall[p.Name] += p.Wall
	t.self[p.Name] += p.Wall - covered
	t.count[p.Name]++
	if p.Depth > 0 {
		byDepth[p.Depth] = append(byDepth[p.Depth], span{p.Name, p.Wall})
	}
}

// Write receives the tracer's JSONL stream. Only pass and run_end events
// are decoded; the tracer writes whole lines, but a partial line is kept
// until its newline arrives.
func (t *layerTrace) Write(b []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.line = append(t.line, b...)
	for {
		i := bytes.IndexByte(t.line, '\n')
		if i < 0 {
			break
		}
		t.event(t.line[:i])
		t.line = t.line[i+1:]
	}
	if len(t.line) == 0 {
		t.line = nil
	}
	return len(b), nil
}

func (t *layerTrace) event(line []byte) {
	var ev struct {
		Ev    string `json:"ev"`
		Algo  string `json:"algo"`
		Moves int    `json:"moves"`
		Kept  int    `json:"kept"`
		DurUS int64  `json:"dur_us"`
	}
	if json.Unmarshal(line, &ev) != nil {
		return // not an event this sink aggregates
	}
	switch ev.Ev {
	case "pass":
		if ev.Algo == "prop" {
			t.passes++
			t.moves += ev.Moves
			t.kept += ev.Kept
		}
	case "run_end":
		t.runBusy += time.Duration(ev.DurUS) * time.Microsecond
	}
}

// busy returns the run-span time recorded so far. Nil-safe.
func (t *layerTrace) busy() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.runBusy
}

// addEngine accounts one portfolio call: its runs' busy time and its
// capacity (wall × workers).
func (t *layerTrace) addEngine(busy, capacity time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.engineBusy += busy
	t.engineCap += capacity
}

// seconds returns the summed wall time of spans with the given name.
func (t *layerTrace) seconds(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.wall[name].Seconds()
}

// selfSeconds returns the summed self time of spans with the given name.
func (t *layerTrace) selfSeconds(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.self[name].Seconds()
}

// spans returns how many spans with the given name ended.
func (t *layerTrace) spans(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count[name]
}
