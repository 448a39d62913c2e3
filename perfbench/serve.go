package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"prop"
	"prop/internal/gen"
	"prop/internal/hgio"
)

const (
	// serveRuns is the multi-start count of every served request.
	serveRuns = 1
	// ecoFraction sizes each warm request's engineering change order.
	ecoFraction = 0.05
	// baseRounds is how often the cold base set is solved (seeds
	// baseSeed, baseSeed+1, ...) to report solve_s as a median.
	baseRounds = 12
	baseSeed   = 1
	// serveJobHistory is how many finished jobs the server retains (its
	// default is 256). The journal compacts its live set, so retention
	// sets both the size of a compaction stall and how often it comes.
	// At 256 the traffic needs about 13 s to fill the live set, after
	// which every compaction stalls both clients for about 300 ms every
	// 5 s: about as many samples as lie beyond the p99, so the p99 fell on
	// either side of that edge from run to run. At 64 the live set fills
	// within seconds and the stalls are smaller and four times as
	// frequent, so the tail is a steady mixture of them.
	serveJobHistory = 64
	// serveWindows is how many stretches the closed loop is split into.
	// Between two of them the clients pause while the host's speed is
	// calibrated, and each stretch is taken at reference speed by the
	// calibrations on either side of it.
	serveWindows = 6
)

// serveCircuits are the small Table-1 clones the serving traffic uses.
var serveCircuits = []string{"balu", "bm1", "p1", "struct", "t2", "t3", "t4", "t6"}

// serveMix is the closed loop's request schedule: cold durable jobs, warm
// ECO repartitions and byte-identical repeats of a base request at 4:4:1.
// No measured traffic share exists; cold:warm 1:1 is cmd/propload's
// default, and one repeat in nine is a small declared share so the result
// cache is exercised without the cheap hits dominating the mix.
var serveMix = []string{"cold", "warm", "cold", "warm", "repeat", "warm", "cold", "warm", "cold"}

// serveInput is one circuit with everything the traffic sends for it.
type serveInput struct {
	name   string
	n      *prop.Netlist
	body   []byte // the netlist in the JSON netlist format
	batch  []byte // a single-item /v1/batch body carrying it
	eco    *prop.Delta
	ecoNet *prop.Netlist // the netlist after the ECO, to check repartitions

	// Set by the base solve.
	baseQuery string
	baseSides []uint8
	baseCut   float64
	baseHash  uint64
	warmBody  []byte
}

// serveInputs generates the serving circuits and their ECOs. Like the
// suite's, they are the same for every workload seed; the seed varies the
// closed loop's request seeds.
func serveInputs() ([]*serveInput, error) {
	specs := map[string]gen.SuiteSpec{}
	for _, s := range gen.Table1() {
		specs[s.Name] = s
	}
	var out []*serveInput
	for _, name := range serveCircuits {
		s := specs[name]
		n, err := prop.Generate(prop.GenParams{Nodes: s.Nodes, Nets: s.Nets, Pins: s.Pins, Seed: gen.SuiteSeed(name)})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := n.WriteJSON(&buf); err != nil {
			return nil, err
		}
		parsed, err := prop.ReadJSON(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return nil, err
		}
		h, err := hgio.ReadJSON(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return nil, err
		}
		eco, err := gen.ECO(h, gen.ECOParams{Fraction: ecoFraction, Seed: gen.SuiteSeed(name + "/eco")})
		if err != nil {
			return nil, err
		}
		ecoNet, _, err := parsed.ApplyDelta(eco)
		if err != nil {
			return nil, err
		}
		out = append(out, &serveInput{
			name: name, n: parsed, body: buf.Bytes(), eco: eco, ecoNet: ecoNet,
			batch: []byte(`{"items":[{"netlist":` + buf.String() + `}]}`),
		})
	}
	return out, nil
}

// server is a running propserve subprocess.
type server struct {
	cmd     *exec.Cmd
	url     string
	journal string
	logDone chan struct{}
}

// startServer boots propserve on a free local port with a fresh journal
// and returns once /healthz answers 200.
func startServer(cfg config, journal string) (*server, error) {
	if err := os.RemoveAll(journal); err != nil {
		return nil, err
	}
	cmd := exec.Command(cfg.propserve, "-addr", "127.0.0.1:0", "-par", strconv.Itoa(cfg.par),
		"-journal", journal, "-job-history", strconv.Itoa(serveJobHistory))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(cfg.par))
	// Should perfbench die without stopping it, the server dies too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logs, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start propserve: %w", err)
	}
	s := &server{cmd: cmd, journal: journal, logDone: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.logDone)
		sc := bufio.NewScanner(logs)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				a, _, _ := strings.Cut(rest, " ")
				select {
				case addr <- a:
				default:
				}
			}
		}
		// Keep draining after a scan error so the server never blocks
		// on a full stderr pipe.
		_, _ = io.Copy(io.Discard, logs)
	}()
	select {
	case a := <-addr:
		s.url = "http://" + a
	case <-time.After(15 * time.Second):
		s.kill()
		return nil, errors.New("propserve did not report its address")
	case <-s.logDone:
		s.kill()
		return nil, errors.New("propserve exited during start-up")
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(s.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, errors.New("propserve never became healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// kill stops the server at once. It is harmless after stop.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // already exited is fine
	<-s.logDone              // stderr closes once the server has exited
	_ = s.cmd.Wait()
	_ = os.RemoveAll(s.journal)
}

// stop drains the server with SIGTERM and waits for it to exit cleanly.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return err
	}
	select {
	case <-s.logDone:
	case <-time.After(30 * time.Second):
		s.kill()
		return errors.New("propserve did not drain within 30s")
	}
	err := s.cmd.Wait()
	_ = os.RemoveAll(s.journal)
	if err != nil {
		return fmt.Errorf("propserve exit: %w", err)
	}
	return nil
}

// partitionReply is the part of a propserve partition response the
// benchmark checks.
type partitionReply struct {
	CutCost float64 `json:"cut_cost"`
	Sides   []int   `json:"sides"`
}

// post sends one request and returns the body of a 200 response. Any
// other status (a 429 or 503 refusal included) and any transport error
// is an error.
func post(ctx context.Context, c *http.Client, url, tenant string, body []byte) ([]byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	resp, err := c.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, resp.Header, nil
}

// checkReply decodes a partition reply and verifies it against n.
func checkReply(raw []byte, n *prop.Netlist) (partitionReply, []uint8, error) {
	var r partitionReply
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, nil, fmt.Errorf("decode reply: %w", err)
	}
	sides, err := intSides(r.Sides)
	if err != nil {
		return r, nil, err
	}
	return r, sides, verify(n, sides, r.CutCost, prop.Options{})
}

// sample is one closed-loop request outcome.
type sample struct {
	kind    string
	latency time.Duration
	err     error
	hit     bool // answered from the result cache
}

// closedLoop runs clients concurrent callers, each issuing its next
// request only after the previous one completed, until d has passed.
// op(client, i) performs client's i-th request.
func closedLoop(clients int, d time.Duration, op func(client, i int) sample) ([]sample, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				per[c] = append(per[c], op(c, i))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all, elapsed
}

// tally counts every sample as an attempted operation, failing the ones
// with an error, and returns the latencies (ms) of the successful ones,
// all together and per request kind, and how many were cache hits.
func tally(rep *report, samples []sample) (lat []float64, byKind map[string][]float64, hits int) {
	byKind = map[string][]float64{}
	for _, s := range samples {
		if !rep.check(s.kind, s.err) {
			continue
		}
		lat = append(lat, ms(s.latency))
		byKind[s.kind] = append(byKind[s.kind], ms(s.latency))
		if s.hit {
			hits++
		}
	}
	return lat, byKind, hits
}

// kindLatency is one request kind's latency summary in the run record.
type kindLatency struct {
	Count int     `json:"count"`
	P50MS float64 `json:"p50_ms"`
	Tail  tail    `json:"p99_ms"`
}

// serveQuery is the shared query string of every served request.
func serveQuery(seed int64) string {
	return fmt.Sprintf("algo=prop&runs=%d&seed=%d", serveRuns, seed)
}

// trafficOp returns the closed loop's request function against srv.
func trafficOp(ctx context.Context, hc *http.Client, srv string, inputs []*serveInput, seed int64) func(c, i int) sample {
	return func(c, i int) sample {
		kind := serveMix[(i+c)%len(serveMix)]
		in := inputs[(i/len(serveMix)+3*c)%len(inputs)]
		tenant := "t" + strconv.Itoa(c)
		// Unique per workload seed, client and request, and clear of the
		// base seeds, so no cold or warm request repeats earlier work.
		reqSeed := seed<<40 + int64(c)<<32 + int64(i) + baseSeed + baseRounds
		t0 := time.Now()
		var (
			raw []byte
			hdr http.Header
			err error
		)
		switch kind {
		case "cold":
			raw, _, err = post(ctx, hc, srv+"/v1/batch?"+serveQuery(reqSeed), tenant, in.batch)
		case "warm":
			raw, _, err = post(ctx, hc, srv+"/v1/repartition?"+serveQuery(reqSeed), tenant, in.warmBody)
		case "repeat":
			raw, hdr, err = post(ctx, hc, srv+"/v1/partition?"+in.baseQuery, tenant, in.body)
		}
		lat := time.Since(t0)
		s := sample{kind: kind, latency: lat}
		if err != nil {
			s.err = err
			return s
		}
		switch kind {
		case "cold":
			var line struct {
				OK     bool            `json:"ok"`
				Error  string          `json:"error"`
				Result json.RawMessage `json:"result"`
			}
			if err := json.Unmarshal(bytes.TrimSpace(raw), &line); err != nil {
				s.err = fmt.Errorf("batch line: %w", err)
			} else if !line.OK {
				s.err = fmt.Errorf("job failed: %s", line.Error)
			} else {
				_, _, s.err = checkReply(line.Result, in.n)
			}
		case "warm":
			_, _, s.err = checkReply(raw, in.ecoNet)
		case "repeat":
			r, sides, err := checkReply(raw, in.n)
			if err == nil && (r.CutCost != in.baseCut || sidesHash(sides) != in.baseHash) {
				err = fmt.Errorf("repeat of %s gave cut %v, base %v", in.name, r.CutCost, in.baseCut)
			}
			s.err = err
			s.hit = hdr.Get("X-Cache") == "hit"
		}
		return s
	}
}

func runServe(cfg config, rep *report) error {
	var (
		inputs          []*serveInput
		srv             *server
		boots, rawBoots []float64
	)
	// Set-up is generation plus a server boot to a healthy /healthz,
	// repeated from a collected heap right after a host-speed calibration;
	// the last server carries the workload.
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		m := cfg.speed.mark()
		cfg.speed.calibrate()
		f := cfg.speed.factorSince(m)
		t0 := time.Now()
		in, err := serveInputs()
		if err != nil {
			return err
		}
		s, err := startServer(cfg, filepath.Join(cfg.workDir, fmt.Sprintf("journal-%d", os.Getpid())))
		if err != nil {
			return err
		}
		rawBoots = append(rawBoots, time.Since(t0).Seconds())
		boots = append(boots, rawBoots[i]/f)
		if i < setupReps-1 {
			// These servers hold no jobs, so a kill loses nothing; a
			// SIGTERM this early can beat propserve's signal handler.
			s.kill()
			continue
		}
		inputs, srv = in, s
	}
	// Kill is harmless after a clean stop and covers every error return.
	defer srv.kill()
	ctx := context.Background()
	hc := &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: cfg.par},
	}
	defer hc.CloseIdleConnections()

	// Cold base solves: the sync path, distinct seeds per round so none is
	// cached. Round 0 is the base the warm requests start from and the
	// repeats replay. Half the rounds run before the closed loop and half
	// after it, so solve_s does not rest on one few-second stretch of a
	// host whose speed drifts. Each round is taken at reference speed by a
	// host-speed calibration right before it.
	var rounds, rawRounds, cuts []float64
	var outs []outcome
	solveRound := func(r int) error {
		m := cfg.speed.mark()
		cfg.speed.calibrate()
		f := cfg.speed.factorSince(m)
		t0 := time.Now()
		for _, in := range inputs {
			q := serveQuery(baseSeed + int64(r))
			raw, _, err := post(ctx, hc, srv.url+"/v1/partition?"+q, "t0", in.body)
			var (
				reply partitionReply
				sides []uint8
			)
			if err == nil {
				reply, sides, err = checkReply(raw, in.n)
			}
			if !rep.check("base "+in.name, err) || r > 0 {
				continue
			}
			in.baseQuery, in.baseSides, in.baseCut, in.baseHash = q, sides, reply.CutCost, sidesHash(sides)
			cuts = append(cuts, reply.CutCost)
			outs = append(outs, outcome{Key: in.name, Cut: reply.CutCost, Hash: in.baseHash})
			in.warmBody, err = json.Marshal(map[string]any{
				"netlist": json.RawMessage(in.body), "sides": reply.Sides, "delta": in.eco,
			})
			if err != nil {
				return err
			}
		}
		rawRounds = append(rawRounds, time.Since(t0).Seconds())
		rounds = append(rounds, rawRounds[len(rawRounds)-1]/f)
		return nil
	}
	for r := 0; r < baseRounds/2; r++ {
		if err := solveRound(r); err != nil {
			return err
		}
	}
	if rep.failed > 0 {
		return fmt.Errorf("base solves failed: %v", rep.failures)
	}

	// Each client's request index runs on across windows; only client c
	// touches next[c], and the windows run one after another.
	traffic := trafficOp(ctx, hc, srv.url, inputs, cfg.seed)
	next := make([]int, cfg.par)
	op := func(c, _ int) sample {
		i := next[c]
		next[c]++
		return traffic(c, i)
	}
	var (
		samples        []sample
		elapsed, rawEl float64
		windowFactors  []float64
	)
	cfg.speed.calibrate()
	for w := 0; w < serveWindows; w++ {
		from := cfg.speed.mark() - speedChunks
		ws, el := closedLoop(cfg.par, cfg.seconds/serveWindows, op)
		cfg.speed.calibrate()
		f := cfg.speed.factorSince(from)
		for i := range ws {
			ws[i].latency = time.Duration(float64(ws[i].latency) / f)
		}
		samples = append(samples, ws...)
		elapsed += el.Seconds() / f
		rawEl += el.Seconds()
		windowFactors = append(windowFactors, f)
	}
	for r := baseRounds / 2; r < baseRounds; r++ {
		if err := solveRound(r); err != nil {
			return err
		}
	}
	lat, byKind, hits := tally(rep, samples)
	rss, err := peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid))
	if err != nil {
		return err
	}
	var scraped map[string]float64
	if cfg.trace {
		if scraped, err = scrape(hc, srv.url); err != nil {
			return err
		}
	}
	if err := srv.stop(); err != nil {
		return err
	}

	// The tail is taken over the requests that compute (cold and warm):
	// cache-hit repeats answer in about a millisecond and would only thin
	// it out.
	kinds := map[string]kindLatency{}
	for k, xs := range byKind {
		kinds[k] = kindLatency{Count: len(xs), P50MS: median(xs), Tail: tailPercentile(xs, 0.99)}
	}
	p99 := tailPercentile(append(append([]float64(nil), byKind["cold"]...), byKind["warm"]...), 0.99)
	rep.e2e.set("setup_s", median(boots), "s")
	rep.e2e.set("solve_s", median(rounds), "s")
	rep.e2e.set("cut_geomean", geomean(cuts), "cost")
	rep.e2e.set("peak_rss_mb", rss, "MB")
	rep.e2e.set("lat_p50_ms", median(lat), "ms")
	rep.e2e.set("lat_p99_ms", p99.Value, "ms")
	rep.e2e.set("done_rps", float64(len(lat))/elapsed, "1/s")
	rep.record["setup_raw_s"] = median(rawBoots)
	rep.record["base_round_s"] = rounds
	rep.record["base_round_raw_s"] = rawRounds
	rep.record["loop_raw_s"] = rawEl
	rep.record["window_speed_factor"] = windowFactors
	rep.record["lat_p99"] = p99
	rep.record["latency_by_kind"] = kinds
	rep.record["repeat_cache_hits"] = hits
	rep.record["results"] = outs
	rep.record["digest"] = fmt.Sprintf("%016x", digest(outs))
	if !cfg.trace {
		return nil
	}
	return serveLayers(cfg, rep, inputs, scraped, outs)
}

// scrape reads the server's /metrics into name{labels} → value.
func scrape(hc *http.Client, url string) (map[string]float64, error) {
	resp, err := hc.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sumSeries adds every series of a metric family whose name (with labels)
// starts with prefix.
func sumSeries(m map[string]float64, prefix string) float64 {
	s := 0.0
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// serveLayers reports serve-eco's per-layer metrics: the server's own
// histograms and counters, plus in-process probes of the delta, warm-start
// and journal layers on the run's own inputs.
func serveLayers(cfg config, rep *report, inputs []*serveInput, sc map[string]float64, served []outcome) error {
	m := rep.layers
	if n := sumSeries(sc, "job_queue_wait_ms_count"); n > 0 {
		m.set("propserve.queue_wait_ms", sumSeries(sc, "job_queue_wait_ms_sum")/n, "ms")
	}
	if n := sc[`phase_duration_ms_count{phase="prop"}`]; n > 0 {
		m.set("propserve.solve_ms", sc[`phase_duration_ms_sum{phase="prop"}`]/n, "ms")
	}
	hits, misses := sc["result_cache_hits_total"], sc["result_cache_misses_total"]
	if hits+misses > 0 {
		m.set("cache.hit_ratio", hits/(hits+misses), "ratio")
	}

	o := prop.Options{Algorithm: prop.AlgoPROP, Runs: serveRuns, Seed: baseSeed, Parallel: cfg.par}
	var applyMS, warmMS []float64
	for r := 0; r < 3; r++ {
		for _, in := range inputs {
			t0 := time.Now()
			_, _, err := in.n.ApplyDelta(in.eco)
			applyMS = append(applyMS, ms(time.Since(t0)))
			if err != nil {
				return err
			}
			t0 = time.Now()
			next, res, err := prop.Repartition(in.n, in.baseSides, in.eco, o)
			warmMS = append(warmMS, ms(time.Since(t0)))
			if err == nil {
				err = verify(next, res.Sides, res.CutCost, o)
			}
			rep.check("in-process repartition "+in.name, err)
		}
	}
	m.set("delta.apply_ms", median(applyMS), "ms")
	m.set("warm.repartition_ms", median(warmMS), "ms")

	item := inputs[0].batch
	result, err := json.Marshal(map[string]any{"cut_cost": inputs[0].baseCut, "sides": make([]int, inputs[0].n.NumNodes())})
	if err != nil {
		return err
	}
	appendMS, err := journalProbe(filepath.Join(cfg.workDir, fmt.Sprintf("probe-journal-%d", os.Getpid())), item, result)
	if err != nil {
		return err
	}
	m.set("jobs.append_ms", appendMS, "ms")

	// Tracing overhead, in process: the served cold solve of the base set,
	// untraced and traced in alternation. Both must agree exactly with
	// each other and with what the server returned for the same options.
	var untraced, traced []float64
	var first []outcome
	lt := newLayerTrace()
	for r := 0; r < 2*baseRounds; r++ {
		var s sweep
		var l *layerTrace
		if r%2 == 1 {
			l = lt
		}
		for _, in := range inputs {
			call(rep, l, nil, &s, in.name, in.n, o)
		}
		if r%2 == 1 {
			traced = append(traced, s.wall.Seconds())
		} else {
			untraced = append(untraced, s.wall.Seconds())
		}
		if first == nil {
			first = s.outs
			rep.check("server vs in-process", sameOutcomes(served, s.outs))
		} else {
			rep.check("determinism", sameOutcomes(first, s.outs))
		}
	}
	m.set("obs.overhead_pct", 100*(median(traced)-median(untraced))/median(untraced), "%")
	return nil
}
