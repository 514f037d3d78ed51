package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"specctrl/internal/experiments"
	"specctrl/internal/obs/span"
	"specctrl/internal/synth"
)

// APIVersion is the job API's JSON schema version: every request and
// response body carries it as "version". Submissions with any other
// version (0 is accepted as "unversioned current") are rejected with
// 400 so a future client can't be silently misparsed.
const APIVersion = 1

// SubmitRequest is the body of POST /v1/jobs.
type SubmitRequest struct {
	Version int `json:"version"`
	// Experiments are registry names (simctrl -list), executed in
	// order.
	Experiments []string `json:"experiments"`
	// Committed overrides the server's committed-instruction budget
	// per simulation (0 = server default).
	Committed uint64 `json:"committed,omitempty"`
	// SynthN overrides the sweepspace experiment's generated profile
	// count (0 = default).
	SynthN int `json:"synthN,omitempty"`
	// SynthProfiles are generator vectors the server registers before
	// running the job; their workloads join the sweepspace sweep. Full
	// vectors travel in the request because content-addressed names
	// alone are not reconstructible server-side.
	SynthProfiles []synth.Profile `json:"synthProfiles,omitempty"`
}

// SubmitResponse is the 202 body of POST /v1/jobs.
type SubmitResponse struct {
	Version int    `json:"version"`
	ID      string `json:"id"`
	Status  string `json:"status"` // path to poll
	Events  string `json:"events"` // path to stream
	Result  string `json:"result"` // path to fetch once done
	Cells   string `json:"cells"`  // path to the cell dump
}

// CellCounts summarizes a job's cell progress.
type CellCounts struct {
	Done      int `json:"done"`
	FromCache int `json:"fromCache"`
	Simulated int `json:"simulated"`
}

// StatusResponse is the body of GET /v1/jobs/{id}.
type StatusResponse struct {
	Version     int        `json:"version"`
	ID          string     `json:"id"`
	State       string     `json:"state"`
	Error       string     `json:"error,omitempty"`
	Experiments []string   `json:"experiments"`
	Cells       CellCounts `json:"cells"`
	Checkpoint  string     `json:"checkpoint,omitempty"`
	CreatedAt   time.Time  `json:"createdAt"`
	StartedAt   *time.Time `json:"startedAt,omitempty"`
	FinishedAt  *time.Time `json:"finishedAt,omitempty"`
}

// ResultResponse is the body of GET /v1/jobs/{id}/result.
type ResultResponse struct {
	Version int                `json:"version"`
	ID      string             `json:"id"`
	State   string             `json:"state"`
	Outputs []ExperimentOutput `json:"outputs"`
}

// errorResponse is every non-2xx JSON body.
type errorResponse struct {
	Version int    `json:"version"`
	Error   string `json:"error"`
}

// routes mounts the job API onto the observability mux. Every handler
// is wrapped in a server span that joins the caller's traceparent
// header, so one TraceID follows a job from the client through the API
// into the grid.
func (s *Server) routes(mux *http.ServeMux) {
	mux.Handle("POST /v1/jobs", s.traced("submit", s.handleSubmit))
	mux.Handle("GET /v1/jobs/{id}", s.traced("status", s.handleStatus))
	mux.Handle("GET /v1/jobs/{id}/events", s.traced("events", s.handleEvents))
	mux.Handle("GET /v1/jobs/{id}/result", s.traced("result", s.handleResult))
	mux.Handle("GET /v1/jobs/{id}/cells", s.traced("cells", s.handleCells))
	mux.Handle("GET /readyz", s.traced("readyz", s.handleReady))
}

// statusWriter records the response code for the request span while
// forwarding Flush, which the event stream needs.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// traced wraps an API handler in an "http:<name>" span, parented to the
// caller's traceparent header when one is present. The span rides the
// request context so handleSubmit can hang the job's spans under it.
func (s *Server) traced(name string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.cfg.Tracer
		if tr == nil {
			h(w, r)
			return
		}
		sp := tr.Child(span.Extract(r.Header), "http:"+name,
			span.Str("method", r.Method), span.Str("path", r.URL.Path))
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			sp.SetAttrs(span.Int("status", int64(sw.code)))
			sp.End()
		}()
		h(sw, r.WithContext(span.NewContext(r.Context(), sp)))
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Version: APIVersion, Error: fmt.Sprintf(format, args...)})
}

// retryAfter stamps the backpressure hint in whole seconds (minimum 1,
// per RFC 9110's delay-seconds form).
func (s *Server) retryAfter(w http.ResponseWriter) {
	secs := int(s.cfg.RetryAfter.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(r.Body)
	// An unknown field is a request this server cannot honor; running
	// the job without it would quietly compute a different one.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Version != 0 && req.Version != APIVersion {
		writeError(w, http.StatusBadRequest,
			"unsupported API version %d (this server speaks version %d)", req.Version, APIVersion)
		return
	}
	if len(req.Experiments) == 0 {
		writeError(w, http.StatusBadRequest, "no experiments in request")
		return
	}
	for _, name := range req.Experiments {
		if _, ok := experiments.Lookup(name); !ok {
			writeError(w, http.StatusBadRequest, "unknown experiment %q", name)
			return
		}
	}
	if req.SynthN < 0 {
		writeError(w, http.StatusBadRequest, "negative synthN %d", req.SynthN)
		return
	}
	// Register submitted profiles up front: an invalid vector fails the
	// submission (400), not the job, and registration is idempotent so
	// repeat submissions are free.
	for i, prof := range req.SynthProfiles {
		if _, err := synth.Register(prof); err != nil {
			writeError(w, http.StatusBadRequest, "synth profile %d: %v", i, err)
			return
		}
	}
	// Parent the job under this request's span (itself joined to the
	// client's trace); fall back to the raw header if tracing is off.
	parent := span.Extract(r.Header)
	if sp := span.FromContext(r.Context()); sp != nil {
		parent = sp.Context()
	}
	j, err := s.submit(req, parent)
	switch err {
	case nil:
	case errDraining:
		s.retryAfter(w)
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	case errQueueFull:
		s.retryAfter(w)
		writeError(w, http.StatusTooManyRequests,
			"job queue full (%d queued)", s.cfg.QueueDepth)
		return
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	base := "/v1/jobs/" + j.id
	writeJSON(w, http.StatusAccepted, SubmitResponse{
		Version: APIVersion,
		ID:      j.id,
		Status:  base,
		Events:  base + "/events",
		Result:  base + "/result",
		Cells:   base + "/cells",
	})
}

// lookupJob resolves the {id} path value, writing the 404 itself.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
	}
	return j, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	state, outputs, errMsg := j.result()
	switch state {
	case StateDone:
		writeJSON(w, http.StatusOK, ResultResponse{
			Version: APIVersion, ID: j.id, State: string(state), Outputs: outputs,
		})
	case StateFailed, StateDrained:
		writeError(w, http.StatusConflict, "job %s %s: %s", j.id, state, errMsg)
	default:
		writeError(w, http.StatusConflict, "job %s still %s", j.id, state)
	}
}

func (s *Server) handleCells(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	// The dump is valid at any point in the job's life: it is exactly
	// the cells completed so far, in the -cells-out schema.
	data, err := j.cells.MarshalJSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

// handleEvents streams the job's events as newline-delimited JSON:
// every past event is replayed, then new ones follow as they happen,
// until the terminal "job" event (or the client goes away).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	cursor := 0
	for {
		evs, changed, terminal := j.eventsSince(cursor)
		for _, e := range evs {
			if err := enc.Encode(e); err != nil {
				return
			}
		}
		cursor += len(evs)
		if flusher != nil && len(evs) > 0 {
			flusher.Flush()
		}
		if terminal {
			// Drain any events emitted between snapshot and now, then
			// stop: the terminal event is always last.
			if evs, _, _ := j.eventsSince(cursor); len(evs) == 0 {
				return
			}
			continue
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if !s.ready() {
		s.retryAfter(w)
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
}
