package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"specctrl/internal/experiments"
	"specctrl/internal/obs"
	"specctrl/internal/obs/span"
	"specctrl/internal/pipeline"
	"specctrl/internal/policy"
	"specctrl/internal/replay"
	"specctrl/internal/runner"
	"specctrl/internal/synth"
)

// WorkerConfig configures a Worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL. Required.
	Coordinator string
	// Node is this worker's self-reported name (default: hostname).
	Node string
	// Addr, when non-empty, serves the worker's own observability
	// endpoints (/metrics, /healthz, /debug/traces, ...) there.
	Addr string
	// Jobs is the runner pool width per unit (default: all CPUs).
	Jobs int
	// TraceCacheBytes bounds the worker's local replay trace cache
	// (0 = replay.DefaultCacheBytes); the coordinator's trace tier
	// backs it, so a local miss fetches before re-recording.
	TraceCacheBytes int64
	// PollWait is the long-poll duration per scheduling request
	// (default 10s; tests shrink it).
	PollWait time.Duration
	// Registry receives the worker metrics (created when nil).
	Registry *obs.Registry
	// Tracer records the worker's spans; unit spans join the job's
	// cross-node trace through the unit's traceparent. Nil disables
	// tracing.
	Tracer *span.Tracer
}

// Worker is a running cluster worker: it registers with the
// coordinator, heartbeats, and executes shard units from the
// scheduler until Drain (graceful: the current unit is handed back)
// or Kill (abrupt: simulates a crash; the coordinator's lease TTL
// recovers the units). Construct with NewWorker.
type Worker struct {
	cfg    WorkerConfig
	client *http.Client
	reg    *obs.Registry
	tracer *span.Tracer
	traces *replay.Cache
	hs     *obs.Server

	ctx      context.Context
	cancel   context.CancelFunc
	loopCtx  context.Context
	loopStop context.CancelFunc
	loopDone chan struct{}
	wg       sync.WaitGroup

	mu         sync.Mutex
	id         string
	heartbeat  time.Duration
	unitCancel context.CancelFunc
	draining   bool
	killed     bool

	unitsDone, unitsFailed           *obs.Counter
	fetchHits, fetchMisses, cellPuts *obs.Counter
	traceFetches, traceUploads       *obs.Counter
}

// NewWorker registers with the coordinator and starts the worker's
// heartbeat and execution loops. It fails if the coordinator cannot be
// reached within a few seconds — the caller (cmd/simserved -worker)
// retries or reports, rather than a silent zombie daemon.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("cluster: coordinator URL required")
	}
	cfg.Coordinator = strings.TrimRight(cfg.Coordinator, "/")
	if cfg.Node == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		cfg.Node = host
	}
	if cfg.Jobs < 1 {
		cfg.Jobs = runtime.NumCPU()
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = 10 * time.Second
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}

	w := &Worker{
		cfg: cfg,
		// No client-level timeout: the poll long-polls; every other
		// request carries its own context deadline.
		client: &http.Client{},
		reg:    cfg.Registry,
		tracer: cfg.Tracer,
		traces: replay.NewCache(cfg.TraceCacheBytes, cfg.Registry),

		loopDone: make(chan struct{}),

		unitsDone:    cfg.Registry.Counter("specctrl_worker_units_total", obs.Labels{"result": "done"}),
		unitsFailed:  cfg.Registry.Counter("specctrl_worker_units_total", obs.Labels{"result": "failed"}),
		fetchHits:    cfg.Registry.Counter("specctrl_worker_cell_fetch_hits_total", nil),
		fetchMisses:  cfg.Registry.Counter("specctrl_worker_cell_fetch_misses_total", nil),
		cellPuts:     cfg.Registry.Counter("specctrl_worker_cell_puts_total", nil),
		traceFetches: cfg.Registry.Counter("specctrl_worker_trace_fetches_total", nil),
		traceUploads: cfg.Registry.Counter("specctrl_worker_trace_uploads_total", nil),
	}
	w.ctx, w.cancel = context.WithCancel(context.Background())
	w.loopCtx, w.loopStop = context.WithCancel(w.ctx)
	w.traces.SetBacking(&remoteTraces{w: w})

	if err := w.register(); err != nil {
		w.cancel()
		return nil, err
	}
	if cfg.Addr != "" {
		hs, err := obs.Serve(cfg.Addr, cfg.Registry, cfg.Tracer)
		if err != nil {
			w.cancel()
			return nil, err
		}
		w.hs = hs
	}

	w.wg.Add(1)
	go w.heartbeatLoop()
	go w.runLoop()
	return w, nil
}

// ID returns the coordinator-assigned worker id (it changes if the
// worker has to re-register after a lapsed lease).
func (w *Worker) ID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// URL returns the worker's observability base URL, or "" when Addr was
// not configured.
func (w *Worker) URL() string {
	if w.hs == nil {
		return ""
	}
	return w.hs.URL()
}

// register obtains a worker id, retrying briefly so a worker started
// moments before its coordinator still comes up.
func (w *Worker) register() error {
	var lastErr error
	for attempt := 0; attempt < 20; attempt++ {
		if err := w.ctx.Err(); err != nil {
			return err
		}
		var resp RegisterResponse
		code, err := w.doJSON(w.ctx, http.MethodPost, "/cluster/v1/workers",
			RegisterRequest{Node: w.cfg.Node}, &resp, span.Context{})
		if err == nil && code == http.StatusOK {
			w.mu.Lock()
			w.id = resp.ID
			w.heartbeat = time.Duration(resp.HeartbeatMillis) * time.Millisecond
			if w.heartbeat <= 0 {
				w.heartbeat = DefaultHeartbeat
			}
			w.mu.Unlock()
			return nil
		}
		if err == nil {
			err = fmt.Errorf("cluster: register: coordinator returned %d", code)
		}
		lastErr = err
		select {
		case <-time.After(250 * time.Millisecond):
		case <-w.ctx.Done():
			return w.ctx.Err()
		}
	}
	return fmt.Errorf("cluster: register with %s: %w", w.cfg.Coordinator, lastErr)
}

// heartbeatLoop keeps the lease alive; a 410 (expired) triggers
// re-registration so a partitioned worker rejoins by itself.
func (w *Worker) heartbeatLoop() {
	defer w.wg.Done()
	for {
		w.mu.Lock()
		interval := w.heartbeat
		id := w.id
		w.mu.Unlock()
		select {
		case <-w.ctx.Done():
			return
		case <-time.After(interval):
		}
		code, err := w.doJSON(w.ctx, http.MethodPost,
			"/cluster/v1/workers/"+id+"/heartbeat", nil, nil, span.Context{})
		if err == nil && code == http.StatusGone {
			_ = w.register() // best-effort; the next beat retries
		}
	}
}

// runLoop polls for units and executes them until drain or kill.
func (w *Worker) runLoop() {
	defer close(w.loopDone)
	backoff := 100 * time.Millisecond
	for w.loopCtx.Err() == nil {
		u, code, err := w.pollOnce()
		switch {
		case err != nil:
			select {
			case <-time.After(backoff):
			case <-w.loopCtx.Done():
			}
			backoff = min(2*backoff, 2*time.Second)
			continue
		case code == http.StatusGone:
			if w.register() != nil {
				return
			}
			continue
		case u == nil: // empty poll
			backoff = 100 * time.Millisecond
			continue
		}
		backoff = 100 * time.Millisecond
		w.execute(u)
	}
}

// pollOnce asks the scheduler for one unit.
func (w *Worker) pollOnce() (*Unit, int, error) {
	var u Unit
	path := fmt.Sprintf("/cluster/v1/workers/%s/poll?wait=%s", w.ID(), w.cfg.PollWait)
	code, err := w.doJSON(w.loopCtx, http.MethodPost, path, nil, &u, span.Context{})
	if err != nil {
		return nil, 0, err
	}
	if code != http.StatusOK {
		return nil, code, nil
	}
	return &u, code, nil
}

// execute runs one shard unit through the ordinary experiments path:
// the same grid code a `simctrl -shard i/n` run uses, with the
// coordinator's cell store as the cell cache and its trace tier
// backing the local trace cache. Every computed cell is published the
// moment it finishes (write-through), which is what makes a crashed
// worker's progress durable.
func (w *Worker) execute(u *Unit) {
	ctx, cancel := context.WithCancel(w.ctx)
	w.mu.Lock()
	w.unitCancel = cancel
	w.mu.Unlock()
	defer func() {
		cancel()
		w.mu.Lock()
		w.unitCancel = nil
		w.mu.Unlock()
	}()

	parent, _ := span.ParseTraceParent(u.TraceParent)
	us := w.tracer.Child(parent, "unit:"+u.Experiment,
		span.Str("unit", u.ID), span.Str("shard", u.Shard), span.Str("node", w.cfg.Node))
	defer us.End()

	err := w.runUnit(ctx, u, us.Context())
	switch {
	case err == nil:
		w.unitsDone.Inc()
		us.SetAttrs(span.Str("result", "done"))
		w.report(u.ID, "done", FailRequest{})
	case errors.Is(err, context.Canceled):
		// Drain hands the unit back for another worker; a kill
		// reports nothing, exactly like a crashed process, and the
		// coordinator's lease TTL recovers the unit.
		w.mu.Lock()
		killed := w.killed
		w.mu.Unlock()
		us.SetAttrs(span.Str("result", "interrupted"))
		if !killed {
			w.report(u.ID, "fail", FailRequest{Error: "worker draining", Requeue: true})
		}
	default:
		w.unitsFailed.Inc()
		us.SetAttrs(span.Str("result", "failed"), span.Str("error", err.Error()))
		w.report(u.ID, "fail", FailRequest{Error: err.Error()})
	}
}

// runUnit builds the unit's parameter set and runs the experiment.
// ErrShardOnly is the success path: the shard's cells were computed
// and published; no assembled output exists on a shard run, nor should
// it — output is the coordinator's job.
func (w *Worker) runUnit(ctx context.Context, u *Unit, parent span.Context) error {
	sh, err := runner.ParseShard(u.Shard)
	if err != nil {
		return fmt.Errorf("cluster: unit %s: %w", u.ID, err)
	}
	p := experiments.DefaultParams()
	if u.Committed > 0 {
		p.MaxCommitted = u.Committed
	}
	p.BaseSeed = u.BaseSeed
	p.Replay = u.Replay
	p.SynthN = u.SynthN
	p.SynthWorkloads = u.SynthWorkloads
	if u.Policy != "" {
		pol, err := policy.Parse(u.Policy)
		if err != nil {
			return fmt.Errorf("cluster: unit %s: %w", u.ID, err)
		}
		p.Pipeline.Policy = pol
	}
	// Re-register shipped profile vectors so the names in
	// SynthWorkloads resolve locally (idempotent; trace-backed names
	// need the worker to have ingested the same -ingest-trace files).
	for _, prof := range u.SynthProfiles {
		if _, err := synth.Register(prof); err != nil {
			return fmt.Errorf("cluster: unit %s: synth profile: %w", u.ID, err)
		}
	}
	p.Jobs = w.cfg.Jobs
	p.Ctx = ctx
	p.Shard = sh
	p.Record = experiments.NewCellStore()
	p.Cache = &remoteCells{w: w}
	p.TraceCache = w.traces
	p.Obs = w.reg
	p.Tracer = w.tracer
	p.SpanParent = parent

	_, err = experiments.Run(u.Experiment, p)
	if errors.Is(err, experiments.ErrShardOnly) {
		return nil
	}
	if err == nil {
		// A driver that assembled output under an active shard would
		// mean the shard contract broke; surface it loudly.
		return fmt.Errorf("cluster: unit %s: experiment %s ignored its shard", u.ID, u.Experiment)
	}
	return err
}

// report posts a unit outcome. Outcome reports outlive the worker's
// context (a draining worker must still hand its unit back), so they
// run on their own short deadline.
func (w *Worker) report(unitID, verb string, body FailRequest) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	path := "/cluster/v1/units/" + unitID + "/" + verb
	if verb == "done" {
		_, _ = w.doJSON(ctx, http.MethodPost, path, nil, nil, span.Context{})
		return
	}
	_, _ = w.doJSON(ctx, http.MethodPost, path, body, nil, span.Context{})
}

// Drain stops the worker gracefully: the current unit (if any) is
// cancelled at the next cell boundary and handed back for requeueing,
// the worker deregisters so its queue is redistributed, and the loops
// exit. Idempotent.
func (w *Worker) Drain() error {
	w.mu.Lock()
	if w.draining || w.killed {
		w.mu.Unlock()
		<-w.loopDone
		return nil
	}
	w.draining = true
	cancel := w.unitCancel
	w.mu.Unlock()

	w.loopStop() // unblocks the long poll
	if cancel != nil {
		cancel()
	}
	<-w.loopDone

	ctx, cancelReq := context.WithTimeout(context.Background(), 5*time.Second)
	_, _ = w.doJSON(ctx, http.MethodPost, "/cluster/v1/workers/"+w.ID()+"/drain", nil, nil, span.Context{})
	cancelReq()

	w.cancel()
	w.wg.Wait()
	if w.hs != nil {
		return w.hs.Close()
	}
	return nil
}

// Kill aborts the worker as a crash would: everything stops
// immediately and nothing is reported to the coordinator — recovery is
// entirely the lease TTL's job. The chaos tests use it as an
// in-process stand-in for SIGKILL.
func (w *Worker) Kill() {
	w.mu.Lock()
	if w.killed {
		w.mu.Unlock()
		return
	}
	w.killed = true
	w.mu.Unlock()
	w.cancel()
	<-w.loopDone
	w.wg.Wait()
	if w.hs != nil {
		w.hs.Close()
	}
}

// doJSON sends one JSON request and decodes a 2xx JSON response into
// out (when non-nil). Non-2xx statuses are returned, not errors: the
// protocol uses them as signals (204 empty poll, 404 cache miss,
// 410 lapsed lease). sc, when valid, rides the traceparent header so
// the coordinator's handler span joins this worker's trace.
func (w *Worker) doJSON(ctx context.Context, method, path string, in, out any, sc span.Context) (int, error) {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, w.cfg.Coordinator+path, body)
	if err != nil {
		return 0, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	span.Inject(req.Header, sc)
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, nil
}

// spanFrom extracts the cell span's context from a grid cell ctx, so
// cache-tier requests join the per-cell span.
func spanFrom(ctx context.Context) span.Context {
	if sp := span.FromContext(ctx); sp != nil {
		return sp.Context()
	}
	return span.Context{}
}

// remoteCells is the worker-side experiments.CellCache over the
// coordinator's shared cell tier: consult before simulating, publish
// after. Fetch and publish failures degrade to local computation —
// the tier is an accelerator, never a correctness dependency.
type remoteCells struct {
	w *Worker
}

// GetOrCompute implements experiments.CellCache.
func (rc *remoteCells) GetOrCompute(ctx context.Context, addr string, _ runner.Spec,
	compute func(context.Context) (experiments.CellResult, error)) (experiments.CellResult, error) {
	w := rc.w
	sc := spanFrom(ctx)
	var cell experiments.CellResult
	code, err := w.doJSON(ctx, http.MethodGet, "/cluster/v1/cells/"+addr, nil, &cell, sc)
	if err == nil && code == http.StatusOK {
		w.fetchHits.Inc()
		return cell, nil
	}
	if ctx.Err() != nil {
		return experiments.CellResult{}, ctx.Err()
	}
	w.fetchMisses.Inc()
	cell, err = compute(ctx)
	if err != nil {
		return cell, err
	}
	// Write-through publish: best-effort, and what makes this worker's
	// progress survive its own death.
	putCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if code, err := w.doJSONBody(putCtx, http.MethodPut, "/cluster/v1/cells/"+addr, cell, sc); err == nil && code == http.StatusNoContent {
		w.cellPuts.Inc()
	}
	return cell, nil
}

// doJSONBody is doJSON for requests whose response body is ignored.
func (w *Worker) doJSONBody(ctx context.Context, method, path string, in any, sc span.Context) (int, error) {
	return w.doJSON(ctx, method, path, in, nil, sc)
}

// remoteTraces is the worker-side replay.Backing over the
// coordinator's trace tier: a trace recorded on any node is fetched
// instead of re-recorded here, and local recordings are uploaded.
type remoteTraces struct {
	w *Worker
}

// Fetch implements replay.Backing.
func (rt *remoteTraces) Fetch(addr string) (*replay.Trace, *pipeline.Stats, bool) {
	w := rt.w
	ctx, cancel := context.WithTimeout(w.ctx, 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.cfg.Coordinator+"/cluster/v1/traces/"+addr, nil)
	if err != nil {
		return nil, nil, false
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, nil, false
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, false
	}
	t, st, err := decodeTrace(data)
	if err != nil {
		return nil, nil, false
	}
	w.traceFetches.Inc()
	return t, st, true
}

// Store implements replay.Backing.
func (rt *remoteTraces) Store(addr string, t *replay.Trace, st *pipeline.Stats) {
	w := rt.w
	data, err := encodeTrace(t, st)
	if err != nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, w.cfg.Coordinator+"/cluster/v1/traces/"+addr, bytes.NewReader(data))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := w.client.Do(req)
	if err != nil {
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		w.traceUploads.Inc()
	}
}
