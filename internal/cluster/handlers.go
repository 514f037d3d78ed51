package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"specctrl/internal/experiments"
	"specctrl/internal/obs/span"
)

// maxPollWait caps the long-poll duration a worker may request.
const maxPollWait = 30 * time.Second

// maxBodyBytes bounds cell and trace uploads. A full-scale suite trace
// is a few megabytes; 256 MiB leaves room for much larger budgets
// while still refusing an unbounded body.
const maxBodyBytes = 256 << 20

// mount registers the cluster wire protocol on the coordinator's serve
// mux (the serve.Config.Mount hook).
func (c *Coordinator) mount(mux *http.ServeMux) {
	mux.Handle("POST /cluster/v1/workers", c.traced("register", c.handleRegister))
	mux.Handle("POST /cluster/v1/workers/{id}/heartbeat", c.traced("heartbeat", c.handleHeartbeat))
	mux.Handle("POST /cluster/v1/workers/{id}/poll", c.traced("poll", c.handlePoll))
	mux.Handle("POST /cluster/v1/workers/{id}/drain", c.traced("worker-drain", c.handleWorkerDrain))
	mux.Handle("POST /cluster/v1/units/{id}/done", c.traced("unit-done", c.handleUnitDone))
	mux.Handle("POST /cluster/v1/units/{id}/fail", c.traced("unit-fail", c.handleUnitFail))
	mux.Handle("GET /cluster/v1/cells/{addr}", c.traced("cell-get", c.handleCellGet))
	mux.Handle("PUT /cluster/v1/cells/{addr}", c.traced("cell-put", c.handleCellPut))
	mux.Handle("GET /cluster/v1/traces/{addr}", c.traced("trace-get", c.handleTraceGet))
	mux.Handle("PUT /cluster/v1/traces/{addr}", c.traced("trace-put", c.handleTracePut))
	mux.Handle("GET /cluster/v1/status", c.traced("cluster-status", c.handleStatus))
}

// traced wraps a cluster handler in an "http:cluster/<name>" span
// joined to the caller's traceparent, so a worker's cache fetches and
// unit reports appear inside the job's cross-node trace.
func (c *Coordinator) traced(name string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if c.tracer == nil {
			h(w, r)
			return
		}
		sp := c.tracer.Child(span.Extract(r.Header), "http:cluster/"+name,
			span.Str("method", r.Method), span.Str("path", r.URL.Path))
		defer sp.End()
		h(w, r.WithContext(span.NewContext(r.Context(), sp)))
	})
}

// clusterError is every non-2xx cluster JSON body.
type clusterError struct {
	Error string `json:"error"`
}

func clusterJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func clusterErrorf(w http.ResponseWriter, code int, format string, args ...any) {
	clusterJSON(w, code, clusterError{Error: fmt.Sprintf(format, args...)})
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		clusterErrorf(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	ws := c.register(req.Node)
	clusterJSON(w, http.StatusOK, RegisterResponse{
		ID:              ws.id,
		HeartbeatMillis: c.cfg.Heartbeat.Milliseconds(),
		LeaseTTLMillis:  c.leaseTTL().Milliseconds(),
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if !c.heartbeat(r.PathValue("id")) {
		// 410: the lease lapsed and the worker's units were requeued;
		// it must re-register under a fresh id.
		clusterErrorf(w, http.StatusGone, "unknown or expired worker %q", r.PathValue("id"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handlePoll(w http.ResponseWriter, r *http.Request) {
	wait := 10 * time.Second
	if s := r.URL.Query().Get("wait"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil || d < 0 {
			clusterErrorf(w, http.StatusBadRequest, "bad wait %q", s)
			return
		}
		wait = min(d, maxPollWait)
	}
	u, ok := c.poll(r.PathValue("id"), wait)
	if !ok {
		clusterErrorf(w, http.StatusGone, "unknown or expired worker %q", r.PathValue("id"))
		return
	}
	if u == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	clusterJSON(w, http.StatusOK, u.Unit)
}

func (c *Coordinator) handleWorkerDrain(w http.ResponseWriter, r *http.Request) {
	if !c.drainWorker(r.PathValue("id")) {
		clusterErrorf(w, http.StatusGone, "unknown worker %q", r.PathValue("id"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleUnitDone(w http.ResponseWriter, r *http.Request) {
	if !c.unitDoneReport(r.PathValue("id")) {
		clusterErrorf(w, http.StatusNotFound, "unknown unit %q", r.PathValue("id"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleUnitFail(w http.ResponseWriter, r *http.Request) {
	var req FailRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		clusterErrorf(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if !c.unitFailReport(r.PathValue("id"), req) {
		clusterErrorf(w, http.StatusNotFound, "unknown unit %q", r.PathValue("id"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleCellGet serves the shared cell tier: a worker consults it
// before simulating, so any node's computed cell is every node's hit.
func (c *Coordinator) handleCellGet(w http.ResponseWriter, r *http.Request) {
	addr := r.PathValue("addr")
	if !validAddr(addr) {
		clusterErrorf(w, http.StatusBadRequest, "malformed cell address %q", addr)
		return
	}
	cell, ok := c.store.Lookup(addr)
	if !ok {
		c.cellMisses.Inc()
		if sp := span.FromContext(r.Context()); sp != nil {
			sp.SetAttrs(span.Str("outcome", "miss"))
		}
		clusterErrorf(w, http.StatusNotFound, "no cell at %s", addr)
		return
	}
	c.cellHits.Inc()
	if sp := span.FromContext(r.Context()); sp != nil {
		sp.SetAttrs(span.Str("outcome", "hit"))
	}
	clusterJSON(w, http.StatusOK, cell)
}

// handleCellPut is the write-through half of the cell tier: workers
// publish every cell they simulate the moment it completes, which is
// also what makes the store the reassignment checkpoint — a unit
// re-run after a worker death hits everything its predecessor
// published.
func (c *Coordinator) handleCellPut(w http.ResponseWriter, r *http.Request) {
	addr := r.PathValue("addr")
	if !validAddr(addr) {
		clusterErrorf(w, http.StatusBadRequest, "malformed cell address %q", addr)
		return
	}
	var cell experiments.CellResult
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&cell); err != nil {
		clusterErrorf(w, http.StatusBadRequest, "bad cell body: %v", err)
		return
	}
	if err := c.store.Put(addr, cell); err != nil {
		clusterErrorf(w, http.StatusInternalServerError, "%v", err)
		return
	}
	c.cellPuts.Inc()
	w.WriteHeader(http.StatusNoContent)
}

// handleTraceGet serves the shared trace tier for record/replay: a
// trace recorded by any node replays on every node.
func (c *Coordinator) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	addr := r.PathValue("addr")
	if !validAddr(addr) {
		clusterErrorf(w, http.StatusBadRequest, "malformed trace address %q", addr)
		return
	}
	t, st, ok := c.traces.Get(addr)
	if !ok {
		c.traceMisses.Inc()
		if sp := span.FromContext(r.Context()); sp != nil {
			sp.SetAttrs(span.Str("outcome", "miss"))
		}
		clusterErrorf(w, http.StatusNotFound, "no trace at %s", addr)
		return
	}
	data, err := encodeTrace(t, st)
	if err != nil {
		clusterErrorf(w, http.StatusInternalServerError, "%v", err)
		return
	}
	c.traceHits.Inc()
	if sp := span.FromContext(r.Context()); sp != nil {
		sp.SetAttrs(span.Str("outcome", "hit"))
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

func (c *Coordinator) handleTracePut(w http.ResponseWriter, r *http.Request) {
	addr := r.PathValue("addr")
	if !validAddr(addr) {
		clusterErrorf(w, http.StatusBadRequest, "malformed trace address %q", addr)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		clusterErrorf(w, http.StatusBadRequest, "read trace body: %v", err)
		return
	}
	t, st, err := decodeTrace(data)
	if err != nil {
		clusterErrorf(w, http.StatusBadRequest, "%v", err)
		return
	}
	c.traces.Put(addr, t, st)
	c.tracePuts.Inc()
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, _ *http.Request) {
	clusterJSON(w, http.StatusOK, c.status())
}
