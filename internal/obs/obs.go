// Package obs is the repository's zero-dependency observability layer:
// a concurrency-safe metrics registry (counters, gauges, bounded
// histograms) with snapshot semantics and Prometheus-text / JSON
// exposition, an HTTP endpoint bundling the registry with expvar and
// pprof, a structured branch-event Tracer hook with pluggable sinks,
// and a live Progress view (one lock-free counter block per run in
// flight) with a stderr heartbeat.
//
// The paper's argument is about where cycles go — misprediction
// recovery, wrong-path fetch, cache stalls — so the simulator has to be
// observable while it runs, not only after. Everything here is built on
// the standard library and designed so the simulator hot path pays one
// nil-check (tracing) or one integer compare (metrics publishing) when
// observation is disabled.
//
// Typical wiring:
//
//	reg := obs.NewRegistry()
//	srv, _ := obs.Serve(":9090", reg, nil)  // /metrics, /metrics.json, /debug/pprof, /debug/traces
//	defer srv.Close()
//	progress := obs.NewProgress()
//	stop := obs.StartHeartbeat(os.Stderr, time.Second, progress)
//	defer stop()
//	run := progress.StartRun("gcc/gshare", 2_000_000)
//	defer run.End()
//	// pass reg and run to the simulator via pipeline.Config.
package obs

import "fmt"

// Labels is a metric's label set. Label values are free-form; label
// names and metric names must match the Prometheus charset
// ([a-zA-Z_][a-zA-Z0-9_]*, colons allowed in metric names).
type Labels map[string]string

// clone returns a copy of l so callers can mutate their map after
// registration.
func (l Labels) clone() Labels {
	if len(l) == 0 {
		return nil
	}
	c := make(Labels, len(l))
	for k, v := range l {
		c[k] = v
	}
	return c
}

// With returns a copy of l with the extra key set; the receiver is not
// modified. Convenient for deriving per-series labels from a base set.
func (l Labels) With(key, value string) Labels {
	c := l.clone()
	if c == nil {
		c = make(Labels, 1)
	}
	c[key] = value
	return c
}

// validName reports whether s is a legal metric or label name.
func validName(s string, allowColon bool) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		case r == ':':
			if !allowColon {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// mustValidName panics on an illegal name: metric registration happens
// at setup time with static names, so a bad name is a programming
// error, matching how the rest of the repository treats invalid static
// configuration.
func mustValidName(kind, s string, allowColon bool) {
	if !validName(s, allowColon) {
		panic(fmt.Sprintf("obs: invalid %s name %q", kind, s))
	}
}
