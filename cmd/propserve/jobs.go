package main

// The durable async job layer. A job's durable half lives in the
// jobs.Store (journaled payload, state, result — everything a restart
// needs); its volatile half lives in the runtimeTable (cancel func, live
// progress, trace buffer — things that die with the process and are
// rebuilt on recovery). Submissions journal the raw request (query string
// + netlist bytes) before they are acknowledged, then dispatch through
// the fair-share scheduler; the executor re-parses the journaled payload
// every time, so a crash-recovered job runs through exactly the code path
// a fresh one does.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"prop"
	"prop/internal/jobs"
	"prop/internal/obs"
)

// Journaled payload kinds.
const (
	kindPartition   = "partition"
	kindRepartition = "repartition"
)

// jobPayload is the serialized request journaled with every async job:
// the query string carrying the knobs plus the raw body — for a
// partition job the netlist bytes (ContentType selects the format), for
// a repartition job the JSON repartitionRequest.
type jobPayload struct {
	Kind        string `json:"kind"`
	Query       string `json:"query,omitempty"`
	ContentType string `json:"content_type,omitempty"`
	Body        []byte `json:"body,omitempty"`
}

// requestFromPayload re-decodes the journaled query knobs. The netlist
// body is deliberately not parsed here — the executor does that, so
// recovery can re-queue jobs without paying for every netlist up front.
func (s *server) requestFromPayload(pl *jobPayload) (*partitionRequest, error) {
	vals, err := url.ParseQuery(pl.Query)
	if err != nil {
		return nil, fmt.Errorf("payload query: %w", err)
	}
	return s.decodeQueryValues(vals)
}

// traceBuf is a concurrency-safe sink for a job's JSONL trace. The
// tracer serializes its own writes, but /debug/trace/{id} reads while
// the job may still be emitting.
type traceBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (t *traceBuf) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.buf.Write(p)
}

func (t *traceBuf) snapshot() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]byte(nil), t.buf.Bytes()...)
}

// jobRuntime is the volatile half of one async job.
type jobRuntime struct {
	ctx        context.Context
	cancel     context.CancelFunc
	trace      *traceBuf     // non-nil iff submitted with ?trace=...
	progress   *obs.Progress // live-progress sink, attached to the job's tracer
	traceLevel prop.TraceLevel
	submitted  time.Time
	// onDone, when non-nil, is called with the final durable record once
	// the job reaches a terminal state (the batch streaming hook).
	onDone func(jobs.Job)
}

// runtimeTable maps job IDs to their volatile state. Entries are dropped
// when the store evicts the job.
type runtimeTable struct {
	mu sync.Mutex
	m  map[string]*jobRuntime
}

func newRuntimeTable() *runtimeTable { return &runtimeTable{m: map[string]*jobRuntime{}} }

func (t *runtimeTable) put(id string, rt *jobRuntime) {
	t.mu.Lock()
	t.m[id] = rt
	t.mu.Unlock()
}

func (t *runtimeTable) get(id string) *jobRuntime {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[id]
}

func (t *runtimeTable) drop(id string) {
	t.mu.Lock()
	rt := t.m[id]
	delete(t.m, id)
	t.mu.Unlock()
	if rt != nil {
		rt.cancel()
	}
}

// jobView is the API shape of one job, durable record plus live runtime
// state.
type jobView struct {
	ID     string     `json:"id"`
	Tenant string     `json:"tenant,omitempty"`
	State  jobs.State `json:"state"`
	// Requeued counts crash-recovery replays of this job.
	Requeued int                   `json:"requeued,omitempty"`
	Progress *obs.ProgressSnapshot `json:"progress,omitempty"`
	Error    string                `json:"error,omitempty"`
	Result   json.RawMessage       `json:"result,omitempty"`
}

// view assembles the API shape of a durable job record: live progress
// while it runs, the raw result bytes once done.
func (s *server) view(j jobs.Job) jobView {
	v := jobView{ID: j.ID, Tenant: j.Tenant, State: j.State, Requeued: j.Requeued, Error: j.Error}
	if rt := s.rt.get(j.ID); rt != nil && !j.State.Terminal() {
		p := rt.progress.Snapshot()
		v.Progress = &p
	}
	if len(j.Result) > 0 {
		v.Result = json.RawMessage(j.Result)
	}
	return v
}

// submitPayload journals one async job and dispatches it through the
// fair-share scheduler. It owns the 429-on-full bookkeeping; the HTTP
// wrappers turn the error into a response.
func (s *server) submitPayload(tenant string, pl jobPayload, req *partitionRequest, runID string, onDone func(jobs.Job)) (jobs.Job, error) {
	raw, err := json.Marshal(pl)
	if err != nil {
		return jobs.Job{}, err
	}
	j, err := s.store.Submit(tenant, raw)
	if err != nil {
		if err == jobs.ErrBusy {
			s.mBusy.Inc()
		}
		return jobs.Job{}, err
	}
	s.startJob(j, req, runID, onDone)
	return j, nil
}

// startJob builds the volatile runtime for an accepted job and enqueues
// it for execution.
func (s *server) startJob(j jobs.Job, req *partitionRequest, runID string, onDone func(jobs.Job)) {
	ctx, cancel := context.WithCancel(obs.WithRunID(s.baseCtx, runID))
	rt := &jobRuntime{
		ctx:        ctx,
		cancel:     cancel,
		progress:   &obs.Progress{},
		traceLevel: req.traceLevel,
		submitted:  time.Now(),
		onDone:     onDone,
	}
	if req.traced {
		rt.trace = &traceBuf{}
	}
	s.rt.put(j.ID, rt)
	s.mJobs.Inc()
	s.mJobsUp.Add(1)
	tenant := j.Tenant
	if !s.sched.Enqueue(tenant, func() { s.executeJob(j.ID, tenant) }) {
		// The scheduler is closed (drain raced the submit); the job slot is
		// already journaled, so record the refusal durably.
		s.mJobsUp.Add(-1)
		s.store.Transition(j.ID, jobs.Pending, jobs.Cancelled, nil)
		cancel()
	}
}

// finishJob fires the terminal-state hook with the final durable record.
func (s *server) finishJob(id, tenant string, rt *jobRuntime) {
	s.mTenantDone.With(tenant).Inc()
	if rt.onDone == nil {
		return
	}
	j, ok := s.store.Get(id)
	if !ok {
		// Evicted between the transition and here; synthesize the minimum.
		j = jobs.Job{ID: id, State: jobs.Cancelled}
	}
	rt.onDone(j)
}

// executeJob drives one queued job to a terminal state: re-parse the
// journaled payload, run the engine under the job's tracer, and journal
// the outcome. Recovered jobs take exactly this path too.
func (s *server) executeJob(id, tenant string) {
	defer s.mJobsUp.Add(-1)
	rt := s.rt.get(id)
	if rt == nil {
		// The job was evicted while queued (TTL'd cancel); nothing to run.
		s.store.Transition(id, jobs.Pending, jobs.Cancelled, nil)
		return
	}
	defer rt.cancel()
	runID := obs.RunID(rt.ctx)
	s.mQueueWait.Observe(tenant, float64(time.Since(rt.submitted))/float64(time.Millisecond))
	if !s.store.Transition(id, jobs.Pending, jobs.Running, nil) {
		// Cancelled while queued.
		s.log.Info("job state", "job", id, "state", jobs.Cancelled, "run_id", runID)
		s.finishJob(id, tenant, rt)
		return
	}
	s.log.Info("job state", "job", id, "state", jobs.Running, "run_id", runID)
	j, ok := s.store.Get(id)
	if !ok {
		return
	}

	var pl jobPayload
	var req *partitionRequest
	err := json.Unmarshal(j.Payload, &pl)
	if err == nil {
		req, err = s.requestFromPayload(&pl)
	}
	if err != nil {
		s.mErrors.Inc()
		s.store.Transition(id, jobs.Running, jobs.Failed, func(j *jobs.Job) { j.Error = err.Error() })
		s.log.Warn("job state", "job", id, "state", jobs.Failed, "error", err.Error(), "run_id", runID)
		s.finishJob(id, tenant, rt)
		return
	}

	// Every job runs under a tracer: a traced submission records its JSONL
	// trajectory for /debug/trace/{id}, everything else traces into the
	// discard sink — either way the tracer drives the job's live-progress
	// snapshot (GET /v1/jobs/{id}, /debug/runs) and the per-phase duration
	// histograms. Pass level, because the engine only emits the pass events
	// that advance the progress view when the tracer asks for them.
	var sink io.Writer = io.Discard
	lvl := prop.TracePasses
	if rt.trace != nil {
		sink, lvl = rt.trace, rt.traceLevel
		// Label the job's trace spans with the job ID so the JSONL served
		// at /debug/trace/{id} self-identifies; the run ID still ties the
		// job to its request logs.
		req.opts.TraceID = id
	}
	tr := prop.NewTracer(sink, lvl).WithProgress(rt.progress).WithPhaseHook(s.observePhase)

	start := time.Now()
	result, summary, err := s.runPayload(rt.ctx, &pl, req, runID, tr)
	elapsedMS := float64(time.Since(start)) / float64(time.Millisecond)
	if s.slowRun > 0 && time.Since(start) > s.slowRun {
		s.log.Warn("slow run", "job", id, "algo", string(req.opts.Algorithm),
			"elapsed_ms", elapsedMS,
			"threshold_ms", float64(s.slowRun)/float64(time.Millisecond), "run_id", runID)
	}
	if err != nil {
		to := jobs.Failed
		if rt.ctx.Err() == context.Canceled {
			to = jobs.Cancelled
		}
		s.mErrors.Inc()
		s.store.Transition(id, jobs.Running, to, func(j *jobs.Job) { j.Error = err.Error() })
		s.log.Warn("job state", "job", id, "state", to, "error", err.Error(),
			"elapsed_ms", elapsedMS, "run_id", runID)
		s.finishJob(id, tenant, rt)
		return
	}
	s.store.Transition(id, jobs.Running, jobs.Done, func(j *jobs.Job) { j.Result = result })
	s.log.Info("job state", "job", id, "state", jobs.Done,
		"algo", summary.Algorithm, "passes", summary.Passes,
		"cut_cost", summary.CutCost, "cut_nets", summary.CutNets,
		"elapsed_ms", elapsedMS, "run_id", runID)
	s.finishJob(id, tenant, rt)
}

// runPayload executes a journaled payload and returns the marshaled
// result plus the partition summary for logging.
func (s *server) runPayload(ctx context.Context, pl *jobPayload, req *partitionRequest, runID string, tr *prop.Tracer) ([]byte, *partitionResponse, error) {
	switch pl.Kind {
	case kindPartition:
		nl, err := parseNetlist(pl.ContentType, pl.Body)
		if err != nil {
			return nil, nil, fmt.Errorf("netlist: %w", err)
		}
		req.netlist = nl
		resp, err := s.run(ctx, req, runID, tr)
		if err != nil {
			return nil, nil, err
		}
		raw, err := json.Marshal(resp)
		return raw, resp, err
	case kindRepartition:
		var body repartitionRequest
		if err := json.Unmarshal(pl.Body, &body); err != nil {
			return nil, nil, fmt.Errorf("body: %w", err)
		}
		req.opts.Tracer = tr
		resp, _, err := s.runRepartition(ctx, req, &body, runID)
		if err != nil {
			return nil, nil, err
		}
		raw, err := json.Marshal(resp)
		return raw, &resp.partitionResponse, err
	}
	return nil, nil, fmt.Errorf("unknown payload kind %q", pl.Kind)
}

// resume re-queues the non-terminal jobs the journal replay recovered.
// Each gets a fresh run ID and runtime; the payload re-parse happens in
// the executor, same as a live submission.
func (s *server) resume(recovered []jobs.Job) {
	for _, j := range recovered {
		var pl jobPayload
		var req *partitionRequest
		err := json.Unmarshal(j.Payload, &pl)
		if err == nil {
			req, err = s.requestFromPayload(&pl)
		}
		if err != nil {
			s.store.Transition(j.ID, jobs.Pending, jobs.Failed, func(j *jobs.Job) { j.Error = err.Error() })
			s.log.Warn("job recovery failed", "job", j.ID, "error", err.Error())
			continue
		}
		s.log.Info("job recovered", "job", j.ID, "tenant", j.Tenant, "requeued", j.Requeued)
		s.startJob(j, req, obs.NewID(), nil)
	}
}

func (s *server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	tenant, ok := s.gate(w, r, true)
	if !ok {
		return
	}
	body, err := io.ReadAll(s.limitBody(w, r))
	if err != nil {
		s.failParse(w, err)
		return
	}
	req, err := s.decodeQuery(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	// Parse the netlist before accepting: a malformed submission is
	// rejected up front, not journaled and failed asynchronously.
	ct := r.Header.Get("Content-Type")
	if _, err := parseNetlist(ct, body); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("netlist: %w", err))
		return
	}
	runID := obs.RunID(r.Context())
	pl := jobPayload{Kind: kindPartition, Query: r.URL.RawQuery, ContentType: ct, Body: body}
	j, err := s.submitPayload(tenant, pl, req, runID, nil)
	if err == jobs.ErrBusy {
		w.Header().Set("Retry-After", "1")
		s.fail(w, http.StatusTooManyRequests, fmt.Errorf("job queue full (%d in flight)", s.store.MaxActive()))
		return
	}
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	s.log.Info("job accepted", "job", j.ID, "tenant", tenant, "state", jobs.Pending,
		"traced", req.traced, "run_id", runID)
	writeJSON(w, http.StatusAccepted, map[string]string{"id": j.ID, "state": string(jobs.Pending), "tenant": tenant})
}

func (s *server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.store.Get(id)
	if !ok {
		s.fail(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, s.view(j))
}

// handleJobList lists retained jobs, newest last; ?tenant= filters.
func (s *server) handleJobList(w http.ResponseWriter, r *http.Request) {
	tenant := r.URL.Query().Get("tenant")
	list := s.store.List(tenant)
	views := make([]jobView, 0, len(list))
	for _, j := range list {
		views = append(views, s.view(j))
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.store.Get(id); !ok {
		s.fail(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	// Pending jobs flip straight to cancelled; running jobs get their
	// context cancelled and the executor records the final state.
	s.store.Transition(id, jobs.Pending, jobs.Cancelled, nil)
	if rt := s.rt.get(id); rt != nil {
		rt.cancel()
	}
	s.log.Info("job cancel requested", "job", id, "run_id", obs.RunID(r.Context()))
	j, _ := s.store.Get(id)
	writeJSON(w, http.StatusOK, s.view(j))
}

// handleRunsList lists every in-flight (pending or running) job with its
// live-progress snapshot, oldest submission first.
func (s *server) handleRunsList(w http.ResponseWriter, _ *http.Request) {
	inflight := s.store.Inflight()
	views := make([]jobView, 0, len(inflight))
	for _, j := range inflight {
		views = append(views, s.view(j))
	}
	writeJSON(w, http.StatusOK, map[string]any{"runs": views})
}

// handleTraceGet serves the JSONL trace of a traced job.
func (s *server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.store.Get(id); !ok {
		s.fail(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	rt := s.rt.get(id)
	if rt == nil || rt.trace == nil {
		s.fail(w, http.StatusNotFound, fmt.Errorf("job %q was not submitted with ?trace=", id))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(rt.trace.snapshot())
}
