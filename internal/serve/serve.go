package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"specctrl/internal/experiments"
	"specctrl/internal/obs"
	"specctrl/internal/obs/span"
	"specctrl/internal/replay"
)

// Config configures a Server. The zero value of every field has a
// usable default except CacheDir, which is required.
type Config struct {
	// Addr is the listen address (":0" picks a free port).
	Addr string
	// CacheDir roots the content-addressed result store. Required.
	CacheDir string
	// DrainDir receives drain checkpoints (default: CacheDir/drain).
	DrainDir string
	// Jobs is the runner pool width per grid (default: all CPUs).
	Jobs int
	// JobConcurrency is how many jobs execute at once (default 2, so
	// concurrent identical jobs exercise the singleflight dedup rather
	// than trivially serializing).
	JobConcurrency int
	// QueueDepth bounds the admission queue, excluding executing jobs
	// (default: 2×Jobs, minimum 4 — sized off the runner pool width so
	// accepted work is at most a few pool-drains deep).
	QueueDepth int
	// JobTimeout cancels a job this long after it starts executing
	// (0 = no timeout).
	JobTimeout time.Duration
	// RetryAfter is the Retry-After hint on 429/503 responses
	// (default 10s).
	RetryAfter time.Duration
	// Params is the base parameter set jobs derive from; a zero
	// MaxCommitted selects experiments.DefaultParams(). Per-request
	// overrides (committed, synthN, synthProfiles) apply on top.
	Params experiments.Params
	// TraceCacheBytes bounds the in-process replay trace cache New
	// installs on Params when Params.TraceCache is nil (0 selects
	// replay.DefaultCacheBytes). The cache is LRU by retained bytes, so
	// a long-running server's memory stays bounded no matter how many
	// distinct (workload, predictor, scale) traces jobs record.
	TraceCacheBytes int64
	// Registry receives the service metrics (created when nil). It is
	// also what /metrics on the server's mux exposes.
	Registry *obs.Registry
	// Tracer records the service's spans: one per API request (joined
	// to the client's traceparent header when present), one per job,
	// one per experiment, plus the grid's per-cell spans underneath.
	// Created with default options when nil, so a served job's trace is
	// always inspectable on /debug/traces.
	Tracer *span.Tracer

	// runExperiment is a test seam; nil means experiments.Run.
	runExperiment func(name string, p experiments.Params) (experiments.Renderer, error)
}

// Server is a running simulation service. Construct with New; stop
// with Drain.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	store *Store
	hs    *obs.Server
	// renderTier says whether jobs use the store's rendered tier. It
	// is off under the runExperiment test seam, whose renders may be
	// fake: a fake render must never serve a later job.
	renderTier bool

	queue       chan *Job
	drainCtx    context.Context
	drainCancel context.CancelFunc
	wg          sync.WaitGroup

	mu       sync.Mutex
	draining bool
	drained  bool
	jobs     map[string]*Job
	nextID   int

	queueDepth  *obs.Gauge
	inflight    *obs.Gauge
	jobSeconds  *obs.Histogram
	cellSeconds *obs.Histogram
}

// jobSecondsBounds and cellSecondsBounds bucket service latencies; the
// top buckets absorb full-scale (multi-minute) grids.
var (
	jobSecondsBounds  = []float64{0.1, 0.5, 1, 5, 15, 60, 300, 1800}
	cellSecondsBounds = []float64{0.01, 0.05, 0.1, 0.5, 1, 5, 30, 120}
)

// New starts a Server: opens the store, mounts the job API on the
// standard observability mux, binds Addr, and launches the executor
// pool. The returned server is already accepting submissions.
func New(cfg Config) (*Server, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.Jobs < 1 {
		cfg.Jobs = runtime.NumCPU()
	}
	if cfg.JobConcurrency < 1 {
		cfg.JobConcurrency = 2
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = max(4, 2*cfg.Jobs)
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 10 * time.Second
	}
	if cfg.Params.MaxCommitted == 0 {
		replayMode := cfg.Params.Replay
		cfg.Params = experiments.DefaultParams()
		cfg.Params.Replay = replayMode
	}
	if cfg.DrainDir == "" {
		if cfg.CacheDir == "" {
			return nil, fmt.Errorf("serve: CacheDir required")
		}
		cfg.DrainDir = filepath.Join(cfg.CacheDir, "drain")
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Tracer == nil {
		cfg.Tracer = span.New(span.Options{})
	}
	if cfg.Params.TraceCache == nil {
		cfg.Params.TraceCache = replay.NewCache(cfg.TraceCacheBytes, cfg.Registry)
	}
	renderTier := cfg.runExperiment == nil
	if renderTier {
		cfg.runExperiment = experiments.Run
	}

	store, err := NewStore(cfg.CacheDir, cfg.Registry)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:         cfg,
		reg:         cfg.Registry,
		store:       store,
		renderTier:  renderTier,
		queue:       make(chan *Job, cfg.QueueDepth),
		jobs:        make(map[string]*Job),
		queueDepth:  cfg.Registry.Gauge("specctrl_serve_queue_depth", nil),
		inflight:    cfg.Registry.Gauge("specctrl_serve_inflight_jobs", nil),
		jobSeconds:  cfg.Registry.Histogram("specctrl_serve_job_seconds", nil, jobSecondsBounds),
		cellSeconds: cfg.Registry.Histogram("specctrl_serve_cell_seconds", nil, cellSecondsBounds),
	}
	cfg.Registry.Gauge("specctrl_serve_queue_capacity", nil).SetUint(uint64(cfg.QueueDepth))
	s.drainCtx, s.drainCancel = context.WithCancel(context.Background())

	mux := obs.NewMux(cfg.Registry, cfg.Tracer)
	s.routes(mux)
	hs, err := obs.ServeHandler(cfg.Addr, mux)
	if err != nil {
		return nil, err
	}
	s.hs = hs

	for i := 0; i < cfg.JobConcurrency; i++ {
		s.wg.Add(1)
		go s.executor()
	}
	return s, nil
}

// URL returns the server's base URL.
func (s *Server) URL() string { return s.hs.URL() }

// Tracer returns the server's span tracer (never nil after New), for
// exporting the accumulated spans at shutdown.
func (s *Server) Tracer() *span.Tracer { return s.cfg.Tracer }

// job looks up a job by id.
func (s *Server) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// submit admits a job or reports why it can't: errDraining when the
// server is shutting down, errQueueFull when admission is saturated.
var (
	errDraining  = errors.New("serve: draining, not accepting jobs")
	errQueueFull = errors.New("serve: job queue full")
)

func (s *Server) submit(req SubmitRequest, parent span.Context) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, errDraining
	}
	s.nextID++
	j := newJob(fmt.Sprintf("job-%06d", s.nextID), req, time.Now())
	j.parent = parent
	select {
	case s.queue <- j:
		s.jobs[j.id] = j
		s.queueDepth.SetUint(uint64(len(s.queue)))
		return j, nil
	default:
		s.nextID-- // job was never admitted; reuse the id
		return nil, errQueueFull
	}
}

// jobParams derives one job's parameter set from the server base plus
// the request overrides.
func (s *Server) jobParams(req SubmitRequest) experiments.Params {
	p := s.cfg.Params
	if req.Committed > 0 {
		p.MaxCommitted = req.Committed
	}
	if req.SynthN > 0 {
		p.SynthN = req.SynthN
	}
	// Profiles were registered at submission; hand the sweep their
	// content-addressed names on top of any server-level extras. Copy
	// before appending: the base Params slice is shared across jobs.
	if len(req.SynthProfiles) > 0 {
		ws := append([]string{}, p.SynthWorkloads...)
		for _, prof := range req.SynthProfiles {
			ws = append(ws, prof.WorkloadName())
		}
		p.SynthWorkloads = ws
	}
	p.Jobs = s.cfg.Jobs
	return p
}

// executor drains the queue until it closes (Drain).
func (s *Server) executor() {
	defer s.wg.Done()
	for j := range s.queue {
		s.queueDepth.SetUint(uint64(len(s.queue)))
		s.runJob(j)
	}
}

// runJob executes one job's experiments, each from the store's
// rendered tier or on the grid runner. Cancel semantics: the grid stops
// dispatching at the next cell boundary, but cells already executing
// always run to completion — that is what makes drain checkpoints (and
// the result cache) loss-free.
func (s *Server) runJob(j *Job) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	start := time.Now()
	j.setRunning(start)

	// The job span joins the submitting client's trace (j.parent came
	// from its traceparent header), so one TraceID covers the client's
	// root, this job, and every cell span the grid emits under it.
	js := s.cfg.Tracer.Child(j.parent, "job",
		span.Str("job", j.id), span.Int("experiments", int64(len(j.req.Experiments))))
	defer js.End()

	ctx := s.drainCtx
	cancel := context.CancelFunc(func() {})
	if s.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
	}
	defer cancel()

	p := s.jobParams(j.req)
	p.Ctx = ctx
	p.Record = j.cells
	jc := &jobCache{store: s.store, job: j, cellSeconds: s.cellSeconds}
	p.Cache = jc
	p.Tracer = s.cfg.Tracer

	var outputs []ExperimentOutput
	var runErr error
	for _, name := range j.req.Experiments {
		es := s.cfg.Tracer.Child(js.Context(), "exp:"+name, span.Str("job", j.id))
		p.SpanParent = es.Context()
		out, warm, err := s.experiment(ctx, j, jc, name, p)
		if warm {
			es.SetAttrs(span.Str("source", "rendered"))
		}
		es.End()
		if err != nil {
			runErr = err
			break
		}
		outputs = append(outputs, ExperimentOutput{Experiment: name, Output: out})
		j.emit(Event{Type: "experiment", Name: name})
	}

	now := time.Now()
	switch {
	case runErr == nil:
		j.finish(StateDone, outputs, "", "", now)
	case errors.Is(runErr, context.Canceled) && s.drainCtx.Err() != nil:
		path, cpErr := s.checkpoint(j)
		msg := "interrupted by server drain"
		if cpErr != nil {
			msg = fmt.Sprintf("%s (checkpoint failed: %v)", msg, cpErr)
		}
		j.finish(StateDrained, nil, msg, path, now)
	case errors.Is(runErr, context.DeadlineExceeded):
		j.finish(StateFailed, nil, fmt.Sprintf("job timeout after %s", s.cfg.JobTimeout), "", now)
	default:
		j.finish(StateFailed, nil, runErr.Error(), "", now)
	}
	s.jobSeconds.Observe(time.Since(start).Seconds())
	state, _, _ := j.result()
	js.SetAttrs(span.Str("state", string(state)))
	s.reg.Counter("specctrl_serve_jobs_total", obs.Labels{"state": string(state)}).Inc()
}

// experiment renders one of j's experiments. A render the store holds
// under the experiment's address is served by replaying its cell list,
// without running the grid or the renderer, and reports warm.
// Otherwise the grid runs through jc, and a successful render is stored
// with the cells jc served while it ran.
func (s *Server) experiment(ctx context.Context, j *Job, jc *jobCache, name string, p experiments.Params) (out string, warm bool, err error) {
	var addr string
	if s.renderTier {
		addr = p.ExperimentAddress(name)
		if r, ok := s.store.renders.Get(addr); ok {
			served, err := s.replay(ctx, j, r.cells)
			if served {
				s.store.renderedHits.Inc()
				return r.output, true, nil
			}
			if err != nil {
				return "", false, err
			}
		}
	}
	r, err := s.cfg.runExperiment(name, p)
	if err != nil {
		return "", false, err
	}
	out = r.Render()
	if s.renderTier {
		s.store.keepRendered(addr, rendered{output: out, cells: jc.take()})
	}
	return out, false, nil
}

// errNotStored is what a warm replay's compute reports: a listed cell
// in neither store tier is not simulated by the replay; the experiment
// falls back to its grid instead.
var errNotStored = errors.New("serve: cell not stored")

func notStored(context.Context) (experiments.CellResult, error) {
	return experiments.CellResult{}, errNotStored
}

// replayedCell is one listed cell a warm replay read from the store.
type replayedCell struct {
	cellRef
	val     experiments.CellResult
	elapsed time.Duration
}

// replay serves a stored render's cells to j as its grid would: each
// listed cell is read through the store, put in the job's cell store,
// observed in the cell histogram and reported as a cached cell event.
// It reports false, having recorded nothing, when a listed cell is in
// neither store tier; the caller then runs the grid. ctx is checked
// between cells, so a drain or timeout ends a warm job as it ends a
// grid job, with the cells read so far recorded for its checkpoint.
func (s *Server) replay(ctx context.Context, j *Job, cells []cellRef) (bool, error) {
	got := make([]replayedCell, 0, len(cells))
	var err error
	for _, c := range cells {
		if err = ctx.Err(); err != nil {
			break
		}
		start := time.Now()
		var val experiments.CellResult
		if val, err = s.store.GetOrCompute(ctx, c.addr, notStored); err != nil {
			if errors.Is(err, errNotStored) {
				return false, nil
			}
			break
		}
		got = append(got, replayedCell{cellRef: c, val: val, elapsed: time.Since(start)})
	}
	for _, c := range got {
		j.cells.Put(c.key, c.val)
		s.cellSeconds.Observe(c.elapsed.Seconds())
	}
	j.replayed(got)
	return err == nil, err
}

// checkpoint persists a job's completed cells as a versioned cell dump
// (the exact schema simctrl -cells-in loads), returning its path. An
// interrupted job is requeueable: resubmitting it replays the
// checkpointed (and cached) cells and simulates only the remainder.
func (s *Server) checkpoint(j *Job) (string, error) {
	if err := os.MkdirAll(s.cfg.DrainDir, 0o755); err != nil {
		return "", err
	}
	data, err := j.cells.MarshalJSON()
	if err != nil {
		return "", err
	}
	path := filepath.Join(s.cfg.DrainDir, j.id+".cells.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// Drain gracefully stops the server: new submissions are rejected with
// 503, the running jobs' in-flight cells finish (queued cells are
// abandoned), and every unfinished job — running or still queued — is
// checkpointed into DrainDir as a requeueable cell dump. Drain returns
// once every executor has exited and the listener is closed. It is
// idempotent.
func (s *Server) Drain() error {
	s.mu.Lock()
	if s.drained {
		s.mu.Unlock()
		return nil
	}
	alreadyDraining := s.draining
	s.draining = true
	s.mu.Unlock()
	if alreadyDraining {
		// A concurrent Drain is in progress; wait for the executors it
		// is shutting down, then let the idempotent close run.
		s.wg.Wait()
	} else {
		s.drainCancel()
		// Checkpoint jobs still queued; executors may race us for them,
		// which is fine — a job they pick up runs under a cancelled
		// context and checkpoints itself through the same path.
	drainQueue:
		for {
			select {
			case j := <-s.queue:
				path, err := s.checkpoint(j)
				msg := "server drained before the job started"
				if err != nil {
					msg = fmt.Sprintf("%s (checkpoint failed: %v)", msg, err)
				}
				j.finish(StateDrained, nil, msg, path, time.Now())
				s.reg.Counter("specctrl_serve_jobs_total", obs.Labels{"state": string(StateDrained)}).Inc()
			default:
				break drainQueue
			}
		}
		s.queueDepth.SetUint(uint64(len(s.queue)))
		close(s.queue)
		s.wg.Wait()
	}
	s.mu.Lock()
	s.drained = true
	s.mu.Unlock()
	return s.hs.Close()
}

// ready reports whether the server accepts submissions (the /readyz
// readiness probe; /healthz on the same mux is pure liveness).
func (s *Server) ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.draining
}
