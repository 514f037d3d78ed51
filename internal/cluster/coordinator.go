package cluster

import (
	"fmt"
	"sync"
	"time"

	"specctrl/internal/experiments"
	"specctrl/internal/obs"
	"specctrl/internal/obs/span"
	"specctrl/internal/pipeline"
	"specctrl/internal/replay"
	"specctrl/internal/runner"
	"specctrl/internal/serve"
	"specctrl/internal/synth"
)

// policySpec is the wire form of an installed policy: its canonical
// Name() (which policy.Parse round-trips on the worker), or "" when
// fetch runs unpolicied.
func policySpec(p pipeline.Policy) string {
	if p == nil {
		return ""
	}
	return p.Name()
}

// Defaults for the coordinator's scheduling knobs; tests shrink the
// intervals to keep chaos scenarios fast.
const (
	// DefaultHeartbeat is how often workers report liveness.
	DefaultHeartbeat = 2 * time.Second
	// DefaultUnitsPerWorker is the scatter width factor: each grid is
	// split into UnitsPerWorker × live-workers shard units, so the
	// work-stealing deques have slack to balance uneven shards.
	DefaultUnitsPerWorker = 2
	// DefaultMaxAttempts bounds how many times one unit is leased
	// before the coordinator gives up on it; the local assembly pass
	// computes whatever an abandoned unit left missing, so exhaustion
	// costs throughput only.
	DefaultMaxAttempts = 3
	// leaseTTLFactor: a worker is declared gone after this many
	// missed heartbeat intervals.
	leaseTTLFactor = 3
)

// Config configures a Coordinator.
type Config struct {
	// Serve configures the embedded job server (address, cache
	// directory, pool width, trace cache, ...). Its RunExperiment and
	// Mount hooks are owned by the coordinator and must be nil.
	Serve serve.Config
	// Heartbeat is the worker heartbeat interval sent to registering
	// workers (default DefaultHeartbeat). The lease TTL is three
	// heartbeats.
	Heartbeat time.Duration
	// UnitsPerWorker scales scatter width (default
	// DefaultUnitsPerWorker).
	UnitsPerWorker int
	// MaxAttempts bounds leases per unit (default DefaultMaxAttempts).
	MaxAttempts int
}

// Coordinator is a running cluster head: the ordinary simulation
// service (it embeds a serve.Server and answers the whole job API)
// plus the /cluster/v1/ scheduling and cache-tier endpoints. Construct
// with New; stop with Drain.
type Coordinator struct {
	cfg    Config
	srv    *serve.Server
	reg    *obs.Registry
	tracer *span.Tracer
	store  *serve.Store
	traces *replay.Cache

	mu         sync.Mutex
	workers    map[string]*workerState
	order      []string // registration order, for the round-robin deal
	units      map[string]*unit
	backlog    []*unit // global queue: units with no live worker to hold them
	wake       chan struct{}
	nextWorker int
	nextUnit   int
	nextDeal   int
	closed     bool

	stop chan struct{} // closes when Drain begins; stops the reaper
	done sync.WaitGroup

	workersGauge                      *obs.Gauge
	unitsDone, unitsFailed            *obs.Counter
	unitsReassigned, steals           *obs.Counter
	workersLost                       *obs.Counter
	cellHits, cellMisses, cellPuts    *obs.Counter
	traceHits, traceMisses, tracePuts *obs.Counter
}

// workerState is the coordinator's view of one registered worker.
type workerState struct {
	id       string
	node     string
	deque    []*unit          // front = next to hand out; steals come off the back
	leased   map[string]*unit // units this worker is executing
	lastSeen time.Time
	gone     bool
}

// Unit states, as reported by Status.
const (
	unitQueued    = "queued"
	unitLeased    = "leased"
	unitDone      = "done"
	unitFailed    = "failed"
	unitAbandoned = "abandoned"
)

// unit is the coordinator-side record of one Unit.
type unit struct {
	Unit
	state    string
	attempts int
	owner    string // worker id while leased
	err      string
	finished chan struct{} // closed on any terminal state
}

// terminal reports whether the unit has reached a final state.
func (u *unit) terminal() bool {
	return u.state == unitDone || u.state == unitFailed || u.state == unitAbandoned
}

// New starts a Coordinator: it wires itself into the serve.Config
// hooks, starts the embedded job server (which binds the listener and
// mounts both the job API and /cluster/v1/), and launches the
// heartbeat reaper. The returned coordinator is accepting jobs and
// worker registrations.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Serve.RunExperiment != nil || cfg.Serve.Mount != nil {
		return nil, fmt.Errorf("cluster: Serve.RunExperiment and Serve.Mount are owned by the coordinator")
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = DefaultHeartbeat
	}
	if cfg.UnitsPerWorker < 1 {
		cfg.UnitsPerWorker = DefaultUnitsPerWorker
	}
	if cfg.MaxAttempts < 1 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.Serve.Registry == nil {
		cfg.Serve.Registry = obs.NewRegistry()
	}
	if cfg.Serve.Tracer == nil {
		cfg.Serve.Tracer = span.New(span.Options{})
	}
	if cfg.Serve.Params.TraceCache == nil {
		cfg.Serve.Params.TraceCache = replay.NewCache(cfg.Serve.TraceCacheBytes, cfg.Serve.Registry)
	}

	reg := cfg.Serve.Registry
	c := &Coordinator{
		cfg:     cfg,
		reg:     reg,
		tracer:  cfg.Serve.Tracer,
		traces:  cfg.Serve.Params.TraceCache,
		workers: make(map[string]*workerState),
		units:   make(map[string]*unit),
		wake:    make(chan struct{}),
		stop:    make(chan struct{}),

		workersGauge:    reg.Gauge("specctrl_cluster_workers", nil),
		unitsDone:       reg.Counter("specctrl_cluster_units_total", obs.Labels{"state": unitDone}),
		unitsFailed:     reg.Counter("specctrl_cluster_units_total", obs.Labels{"state": unitFailed}),
		unitsReassigned: reg.Counter("specctrl_cluster_units_reassigned_total", nil),
		steals:          reg.Counter("specctrl_cluster_steals_total", nil),
		workersLost:     reg.Counter("specctrl_cluster_workers_lost_total", nil),
		cellHits:        reg.Counter("specctrl_cluster_cell_hits_total", nil),
		cellMisses:      reg.Counter("specctrl_cluster_cell_misses_total", nil),
		cellPuts:        reg.Counter("specctrl_cluster_cell_puts_total", nil),
		traceHits:       reg.Counter("specctrl_cluster_trace_hits_total", nil),
		traceMisses:     reg.Counter("specctrl_cluster_trace_misses_total", nil),
		tracePuts:       reg.Counter("specctrl_cluster_trace_puts_total", nil),
	}
	cfg.Serve.RunExperiment = c.runExperiment
	cfg.Serve.Mount = c.mount

	srv, err := serve.New(cfg.Serve)
	if err != nil {
		return nil, err
	}
	c.srv = srv
	c.store = srv.Store()

	c.done.Add(1)
	go c.reaper()
	return c, nil
}

// URL returns the coordinator's base URL (job API and cluster routes
// share one listener).
func (c *Coordinator) URL() string { return c.srv.URL() }

// Server returns the embedded job server.
func (c *Coordinator) Server() *serve.Server { return c.srv }

// Drain gracefully stops the coordinator: the embedded job server
// drains (rejecting new submissions, checkpointing unfinished jobs),
// outstanding units are abandoned so no scatter waits forever, and the
// reaper exits. Idempotent.
func (c *Coordinator) Drain() error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.stop)
		for _, u := range c.units {
			if !u.terminal() {
				c.finishLocked(u, unitAbandoned, "coordinator draining")
			}
		}
		c.wakeLocked()
	}
	c.mu.Unlock()
	err := c.srv.Drain()
	c.done.Wait()
	return err
}

// leaseTTL is how long a silent worker stays live.
func (c *Coordinator) leaseTTL() time.Duration {
	return leaseTTLFactor * c.cfg.Heartbeat
}

// wakeLocked broadcasts to every blocked poll. Callers hold c.mu.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// liveWorkersLocked counts workers that have not been declared gone.
func (c *Coordinator) liveWorkersLocked() int {
	n := 0
	for _, w := range c.workers {
		if !w.gone {
			n++
		}
	}
	return n
}

// register admits a worker and returns its assigned state.
func (c *Coordinator) register(node string) *workerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextWorker++
	w := &workerState{
		id:       fmt.Sprintf("w-%06d", c.nextWorker),
		node:     node,
		leased:   make(map[string]*unit),
		lastSeen: time.Now(),
	}
	c.workers[w.id] = w
	c.order = append(c.order, w.id)
	c.workersGauge.SetUint(uint64(c.liveWorkersLocked()))
	// A fresh worker can immediately relieve the backlog.
	c.wakeLocked()
	return w
}

// heartbeat refreshes a worker's lease; false means the worker is
// unknown or already declared gone and must re-register.
func (c *Coordinator) heartbeat(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[id]
	if !ok || w.gone {
		return false
	}
	w.lastSeen = time.Now()
	return true
}

// dropWorkerLocked marks a worker gone and requeues everything it
// held. penalize controls whether leased units keep their consumed
// attempt: expiry does (the unit may itself be the poison), a graceful
// drain does not.
func (c *Coordinator) dropWorkerLocked(w *workerState, penalize bool) {
	if w.gone {
		return
	}
	w.gone = true
	requeued := 0
	for _, u := range w.deque {
		u.state = unitQueued
		u.owner = ""
		c.backlog = append(c.backlog, u)
		requeued++
	}
	w.deque = nil
	for _, u := range w.leased {
		if !penalize {
			u.attempts--
		}
		c.requeueLocked(u)
		requeued++
	}
	w.leased = make(map[string]*unit)
	c.workersGauge.SetUint(uint64(c.liveWorkersLocked()))
	if requeued > 0 {
		c.unitsReassigned.Add(uint64(requeued))
		c.wakeLocked()
	}
	// Losing the last worker must not strand a job: abandon everything
	// still pending so the scatter unblocks and the coordinator's local
	// assembly pass simulates whatever the cluster never delivered.
	if c.liveWorkersLocked() == 0 {
		for _, u := range c.units {
			if !u.terminal() {
				c.finishLocked(u, unitAbandoned, "no live workers")
			}
		}
		c.backlog = nil
	}
}

// requeueLocked returns a leased unit to the backlog, or fails it when
// its attempts are exhausted.
func (c *Coordinator) requeueLocked(u *unit) {
	if u.terminal() {
		return
	}
	u.owner = ""
	if u.attempts >= c.cfg.MaxAttempts {
		c.finishLocked(u, unitFailed, "attempts exhausted")
		return
	}
	u.state = unitQueued
	c.backlog = append(c.backlog, u)
}

// finishLocked moves a unit to a terminal state and releases waiters.
func (c *Coordinator) finishLocked(u *unit, state, errMsg string) {
	if u.terminal() {
		return
	}
	u.state = state
	u.err = errMsg
	u.owner = ""
	switch state {
	case unitDone:
		c.unitsDone.Inc()
	case unitFailed:
		c.unitsFailed.Inc()
	}
	close(u.finished)
}

// reaper periodically expires workers whose lease lapsed.
func (c *Coordinator) reaper() {
	defer c.done.Done()
	t := time.NewTicker(c.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		now := time.Now()
		c.mu.Lock()
		for _, w := range c.workers {
			if !w.gone && now.Sub(w.lastSeen) > c.leaseTTL() {
				c.workersLost.Inc()
				c.dropWorkerLocked(w, true)
			}
		}
		c.mu.Unlock()
	}
}

// poll hands the calling worker a unit, blocking up to wait for one to
// appear. The discipline mirrors internal/runner's dispatch: own deque
// front, then the global backlog, then steal half of the longest
// victim's deque from the back. A nil return with ok=true means the
// wait elapsed empty; ok=false means the worker must re-register.
func (c *Coordinator) poll(workerID string, wait time.Duration) (*unit, bool) {
	deadline := time.Now().Add(wait)
	for {
		c.mu.Lock()
		w, known := c.workers[workerID]
		if !known || w.gone {
			c.mu.Unlock()
			return nil, false
		}
		w.lastSeen = time.Now() // polling is proof of life
		if u := c.takeLocked(w); u != nil {
			u.state = unitLeased
			u.owner = w.id
			u.attempts++
			w.leased[u.ID] = u
			c.mu.Unlock()
			return u, true
		}
		wake := c.wake
		c.mu.Unlock()

		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, true
		}
		timer := time.NewTimer(remain)
		select {
		case <-wake:
			timer.Stop()
		case <-timer.C:
			return nil, true
		case <-c.stop:
			timer.Stop()
			return nil, true
		}
	}
}

// takeLocked pops the next unit for w: own deque, backlog, then steal.
func (c *Coordinator) takeLocked(w *workerState) *unit {
	if len(w.deque) > 0 {
		u := w.deque[0]
		w.deque = w.deque[1:]
		return u
	}
	if len(c.backlog) > 0 {
		u := c.backlog[0]
		c.backlog = c.backlog[1:]
		return u
	}
	// Steal half of the longest live victim's deque, from the back —
	// the node-granularity mirror of runner's stealInto.
	var victim *workerState
	for _, v := range c.workers {
		if v == w || v.gone || len(v.deque) == 0 {
			continue
		}
		if victim == nil || len(v.deque) > len(victim.deque) {
			victim = v
		}
	}
	if victim == nil {
		return nil
	}
	n := (len(victim.deque) + 1) / 2
	stolen := victim.deque[len(victim.deque)-n:]
	victim.deque = victim.deque[:len(victim.deque)-n]
	// The caller gets the first stolen unit; the rest land on w's deque.
	u := stolen[0]
	w.deque = append(w.deque, stolen[1:]...)
	c.steals.Add(uint64(n))
	return u
}

// unitDoneReport marks a unit complete.
func (c *Coordinator) unitDoneReport(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	u, ok := c.units[id]
	if !ok {
		return false
	}
	if w, ok := c.workers[u.owner]; ok {
		delete(w.leased, id)
	}
	c.finishLocked(u, unitDone, "")
	return true
}

// unitFailReport records a unit failure, requeueing when asked (and
// attempts remain).
func (c *Coordinator) unitFailReport(id string, req FailRequest) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	u, ok := c.units[id]
	if !ok {
		return false
	}
	if w, ok := c.workers[u.owner]; ok {
		delete(w.leased, id)
	}
	if req.Requeue {
		c.requeueLocked(u)
		if !u.terminal() {
			c.unitsReassigned.Inc()
			c.wakeLocked()
		}
	} else {
		c.finishLocked(u, unitFailed, req.Error)
	}
	return true
}

// drainWorker gracefully deregisters a worker, requeueing its units
// without burning an attempt.
func (c *Coordinator) drainWorker(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[id]
	if !ok {
		return false
	}
	c.dropWorkerLocked(w, false)
	return true
}

// status snapshots the cluster for GET /cluster/v1/status.
func (c *Coordinator) status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	st := Status{Units: map[string]int{}}
	for _, id := range c.order {
		w := c.workers[id]
		if w.gone {
			continue
		}
		leased := make([]string, 0, len(w.leased))
		for uid := range w.leased {
			leased = append(leased, uid)
		}
		st.Workers = append(st.Workers, StatusWorker{
			ID:             w.id,
			Node:           w.node,
			Queued:         len(w.deque),
			Leased:         leased,
			LastSeenMillis: now.Sub(w.lastSeen).Milliseconds(),
		})
	}
	for _, u := range c.units {
		st.Units[u.state]++
	}
	return st
}

// scatter creates and deals units for one experiment grid, returning
// them for the caller to await. Units are dealt round-robin onto live
// workers' deques (continuing from where the previous deal stopped, so
// consecutive scatters spread evenly); with no live worker they land
// on the global backlog.
func (c *Coordinator) scatter(name string, p experiments.Params, parent span.Context) []*unit {
	c.mu.Lock()
	defer c.mu.Unlock()
	live := make([]*workerState, 0, len(c.order))
	for _, id := range c.order {
		if w := c.workers[id]; !w.gone {
			live = append(live, w)
		}
	}
	if len(live) == 0 || c.closed {
		return nil
	}
	k := c.cfg.UnitsPerWorker * len(live)
	units := make([]*unit, 0, k)
	// Ship the vectors behind the job's profile-backed synth workloads
	// so workers can re-register them; trace-backed names ride along
	// by name only (workers ingest trace files at startup).
	_, synthProfs := synth.ProfilesFor(p.SynthWorkloads)
	for i := 0; i < k; i++ {
		sh := runner.Shard{Index: i, Count: k}
		c.nextUnit++
		u := &unit{
			Unit: Unit{
				ID:             fmt.Sprintf("u-%06d", c.nextUnit),
				Addr:           p.UnitAddress(name, sh),
				Experiment:     name,
				Shard:          sh.String(),
				Committed:      p.MaxCommitted,
				BaseSeed:       p.BaseSeed,
				Replay:         p.Replay,
				SynthN:         p.SynthN,
				SynthWorkloads: p.SynthWorkloads,
				Policy:         policySpec(p.Pipeline.Policy),
				SynthProfiles:  synthProfs,
				TraceParent:    parent.TraceParent(),
			},
			state:    unitQueued,
			finished: make(chan struct{}),
		}
		c.units[u.ID] = u
		units = append(units, u)
		w := live[c.nextDeal%len(live)]
		c.nextDeal++
		w.deque = append(w.deque, u)
	}
	c.wakeLocked()
	return units
}

// runExperiment is the serve.Config.RunExperiment hook: scatter the
// grid across live workers, await the units, then run the experiment
// through the unchanged local path. The local pass produces the
// output: worker-published cells are cache hits in it, and cells no
// worker delivered (failures, abandoned units, multi-grid drivers that
// shard only their first grid) are simulated locally. That is the
// whole determinism argument — the bytes come from the same assembly
// path as a single-process run, always.
func (c *Coordinator) runExperiment(name string, p experiments.Params) (experiments.Renderer, error) {
	parent := p.SpanParent
	units := c.scatter(name, p, parent)
	if len(units) > 0 {
		ss := c.tracer.Child(parent, "scatter:"+name,
			span.Int("units", int64(len(units))))
		c.await(units, p)
		ss.End()
	}
	return experiments.Run(name, p)
}

// await blocks until every unit is terminal or the job's context is
// cancelled; on cancellation the outstanding units are abandoned so
// workers' reports for them are simply ignored.
func (c *Coordinator) await(units []*unit, p experiments.Params) {
	var ctxDone <-chan struct{}
	if p.Ctx != nil {
		ctxDone = p.Ctx.Done()
	}
	for _, u := range units {
		select {
		case <-u.finished:
		case <-ctxDone:
			c.abandon(units)
			return
		case <-c.stop:
			c.abandon(units)
			return
		}
	}
}

// abandon terminates every non-terminal unit in the set and removes
// them from all queues.
func (c *Coordinator) abandon(units []*unit) {
	c.mu.Lock()
	defer c.mu.Unlock()
	doomed := make(map[*unit]bool, len(units))
	for _, u := range units {
		if !u.terminal() {
			doomed[u] = true
			c.finishLocked(u, unitAbandoned, "job cancelled")
		}
	}
	strip := func(q []*unit) []*unit {
		out := q[:0]
		for _, u := range q {
			if !doomed[u] {
				out = append(out, u)
			}
		}
		return out
	}
	c.backlog = strip(c.backlog)
	for _, w := range c.workers {
		w.deque = strip(w.deque)
		for id, u := range w.leased {
			if doomed[u] {
				delete(w.leased, id)
			}
		}
	}
}
