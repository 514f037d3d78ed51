package serve

import (
	"context"
	"slices"
	"sync"
	"time"

	"specctrl/internal/experiments"
	"specctrl/internal/obs"
	"specctrl/internal/obs/span"
	"specctrl/internal/runner"
)

// JobState is a job's lifecycle phase.
type JobState string

const (
	// StateQueued: accepted, waiting for an executor slot.
	StateQueued JobState = "queued"
	// StateRunning: executing on the grid runner.
	StateRunning JobState = "running"
	// StateDone: every experiment rendered; results available.
	StateDone JobState = "done"
	// StateFailed: a cell or driver errored (or the job timed out).
	StateFailed JobState = "failed"
	// StateDrained: interrupted by server drain; completed cells are
	// checkpointed as a requeueable cell dump.
	StateDrained JobState = "drained"
)

// terminal reports whether no further transitions can happen.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateDrained
}

// Event is one entry in a job's completion stream, delivered in order
// over GET /v1/jobs/{id}/events as newline-delimited JSON.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // "cell" | "experiment" | "job"

	// Cell events.
	Key       string  `json:"key,omitempty"`  // spec key
	Addr      string  `json:"addr,omitempty"` // content address
	Cached    bool    `json:"cached"`         // served without simulating
	ElapsedMS float64 `json:"elapsedMs,omitempty"`

	// Experiment events (one per finished experiment).
	Name string `json:"name,omitempty"`

	// Job events (the terminal event).
	State string `json:"state,omitempty"`
}

// ExperimentOutput is one experiment's rendered result.
type ExperimentOutput struct {
	Experiment string `json:"experiment"`
	Output     string `json:"output"`
}

// Job is one submitted unit of work: a list of experiments executed
// under one parameter set. All mutable state is guarded by mu; update
// is closed and replaced on every change so streamers can wait without
// polling.
type Job struct {
	id      string
	req     SubmitRequest
	cells   *experiments.CellStore
	created time.Time
	// parent is the submitting request's span context (ultimately the
	// client's traceparent header), so the job's spans join the
	// client's trace; the zero value starts a server-local trace.
	parent span.Context

	mu         sync.Mutex
	state      JobState
	errMsg     string
	outputs    []ExperimentOutput
	done       int // cells completed (fromCache + simulated)
	fromCache  int
	simulated  int
	checkpoint string
	events     []Event
	update     chan struct{}
	started    time.Time
	finished   time.Time
}

func newJob(id string, req SubmitRequest, now time.Time) *Job {
	return &Job{
		id:      id,
		req:     req,
		cells:   experiments.NewCellStore(),
		created: now,
		state:   StateQueued,
		update:  make(chan struct{}),
	}
}

// bump must be called with mu held: it wakes every waiter.
func (j *Job) bump() {
	close(j.update)
	j.update = make(chan struct{})
}

// emit appends one event (Seq assigned here) and wakes streamers.
func (j *Job) emit(e Event) {
	j.mu.Lock()
	e.Seq = len(j.events) + 1
	j.events = append(j.events, e)
	j.bump()
	j.mu.Unlock()
}

func (j *Job) setRunning(now time.Time) {
	j.mu.Lock()
	j.state = StateRunning
	j.started = now
	j.bump()
	j.mu.Unlock()
}

// cellDone records one completed cell and emits its event.
func (j *Job) cellDone(key, addr string, cached bool, elapsed time.Duration) {
	j.mu.Lock()
	j.addCellLocked(key, addr, cached, elapsed)
	j.bump()
	j.mu.Unlock()
}

// replayed records the cells a stored render was served from, every one
// cached, exactly as cellDone would one by one, but under one lock and
// one wake-up.
func (j *Job) replayed(cells []replayedCell) {
	j.mu.Lock()
	j.events = slices.Grow(j.events, len(cells))
	for _, c := range cells {
		j.addCellLocked(c.key, c.addr, true, c.elapsed)
	}
	j.bump()
	j.mu.Unlock()
}

// addCellLocked counts one completed cell and appends its event; mu
// must be held.
func (j *Job) addCellLocked(key, addr string, cached bool, elapsed time.Duration) {
	j.done++
	if cached {
		j.fromCache++
	} else {
		j.simulated++
	}
	j.events = append(j.events, Event{
		Type:      "cell",
		Key:       key,
		Addr:      addr,
		Cached:    cached,
		ElapsedMS: elapsed.Seconds() * 1000,
		Seq:       len(j.events) + 1,
	})
}

// finish moves the job to a terminal state and emits the terminal
// event. checkpoint is the drain dump path (StateDrained only).
func (j *Job) finish(state JobState, outputs []ExperimentOutput, errMsg, checkpoint string, now time.Time) {
	j.mu.Lock()
	j.state = state
	j.outputs = outputs
	j.errMsg = errMsg
	j.checkpoint = checkpoint
	j.finished = now
	e := Event{Type: "job", State: string(state), Seq: len(j.events) + 1}
	j.events = append(j.events, e)
	j.bump()
	j.mu.Unlock()
}

// eventsSince returns the events past cursor, a channel that closes on
// the next change, and whether the job is terminal.
func (j *Job) eventsSince(cursor int) ([]Event, <-chan struct{}, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var evs []Event
	if cursor < len(j.events) {
		evs = append(evs, j.events[cursor:]...)
	}
	return evs, j.update, j.state.terminal()
}

// snapshot returns the job's status document.
func (j *Job) snapshot() StatusResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := StatusResponse{
		Version:     APIVersion,
		ID:          j.id,
		State:       string(j.state),
		Error:       j.errMsg,
		Experiments: append([]string(nil), j.req.Experiments...),
		Cells: CellCounts{
			Done:      j.done,
			FromCache: j.fromCache,
			Simulated: j.simulated,
		},
		Checkpoint: j.checkpoint,
		CreatedAt:  j.created,
	}
	if !j.started.IsZero() {
		st.StartedAt = &j.started
	}
	if !j.finished.IsZero() {
		st.FinishedAt = &j.finished
	}
	return st
}

// result returns the outputs once terminal.
func (j *Job) result() (JobState, []ExperimentOutput, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, append([]ExperimentOutput(nil), j.outputs...), j.errMsg
}

// jobCache adapts the shared Store to one job's grid run: it counts
// hits vs simulations for the job's status document, emits per-cell
// completion events, feeds the service latency histogram, and lists the
// cells it served for the experiment's rendered-tier entry. It is
// called concurrently by runner workers.
type jobCache struct {
	store       *Store
	job         *Job
	cellSeconds *obs.Histogram

	mu   sync.Mutex
	seen []cellRef // cells served since the last take
}

// take returns the cells served since the previous take (for the
// experiment that just ran) and starts a new list.
func (c *jobCache) take() []cellRef {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := c.seen
	c.seen = nil
	return seen
}

var _ experiments.CellCache = (*jobCache)(nil)

func (c *jobCache) GetOrCompute(ctx context.Context, addr string, sp runner.Spec,
	compute func(context.Context) (experiments.CellResult, error)) (experiments.CellResult, error) {
	start := time.Now()
	simulated := false
	val, err := c.store.GetOrCompute(ctx, addr, func(ctx context.Context) (experiments.CellResult, error) {
		simulated = true
		return compute(ctx)
	})
	if err != nil {
		return val, err
	}
	elapsed := time.Since(start)
	if c.cellSeconds != nil {
		c.cellSeconds.Observe(elapsed.Seconds())
	}
	key := sp.Key()
	c.mu.Lock()
	c.seen = append(c.seen, cellRef{key: key, addr: addr})
	c.mu.Unlock()
	c.job.cellDone(key, addr, !simulated, elapsed)
	return val, nil
}
