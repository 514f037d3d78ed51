package span

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"
)

// spanJSON is the wire form the /debug/traces NDJSON handler serves.
type spanJSON struct {
	TraceID  string         `json:"traceId"`
	SpanID   string         `json:"spanId"`
	ParentID string         `json:"parentId,omitempty"`
	Name     string         `json:"name"`
	Start    int64          `json:"startUnixNano"`
	DurNS    int64          `json:"durNs"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

func toJSON(s Span) spanJSON {
	j := spanJSON{
		TraceID: s.ctx.Trace.String(),
		SpanID:  s.ctx.Span.String(),
		Name:    s.Name,
		Start:   s.Start.UnixNano(),
		DurNS:   s.Finish.Sub(s.Start).Nanoseconds(),
	}
	if !s.Parent.IsZero() {
		j.ParentID = s.Parent.String()
	}
	if len(s.Attrs) > 0 {
		j.Attrs = make(map[string]any, len(s.Attrs))
		for _, a := range s.Attrs {
			j.Attrs[a.Key] = a.Value
		}
	}
	return j
}

// Handler serves the tracer's span store over HTTP: newline-delimited
// JSON of the retained finished spans (oldest first), or the store's
// occupancy/utilization as a JSON document with ?stats=1. A nil tracer
// yields 404s, so the endpoint can be mounted unconditionally.
func Handler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if t == nil {
			http.Error(w, "span tracing disabled", http.StatusNotFound)
			return
		}
		if r.URL.Query().Get("stats") == "1" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(t.Stats())
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		bw := bufio.NewWriter(w)
		enc := json.NewEncoder(bw)
		for _, s := range t.Snapshot() {
			if err := enc.Encode(toJSON(s)); err != nil {
				return
			}
		}
		_ = bw.Flush()
	})
}

// Chrome trace-event export. The output loads directly into Perfetto
// (ui.perfetto.dev) or chrome://tracing and renders each span as a
// complete ("X") slice.
//
// Track assignment: a span is placed on the track named by its own
// "tid" attribute, or — so children emitted deep in the replay/serve
// layers land on the worker that ran them — the nearest ancestor's. A
// span may also carry a "thread" string attribute naming its track;
// the runner labels worker tracks this way ("worker 3", "queue 3").
// Spans with no tid anywhere in their ancestry go to track 0 ("main").

// chromeEvent is one trace-event JSON object.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeFile is the top-level trace-event JSON document.
type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// TIDAttr and ThreadAttr are the attribute keys WriteChrome consults
// for track assignment and naming.
const (
	TIDAttr    = "tid"
	ThreadAttr = "thread"
)

// attrInt coerces a numeric attribute value.
func attrInt(v any) (int64, bool) {
	switch n := v.(type) {
	case int64:
		return n, true
	case int:
		return int64(n), true
	case float64:
		return int64(n), true
	}
	return 0, false
}

// WriteChrome writes spans as Chrome trace-event JSON. Timestamps are
// rebased to the earliest span start so the timeline begins at zero.
func WriteChrome(w io.Writer, spans []Span) error {
	byID := make(map[SpanID]*Span, len(spans))
	for i := range spans {
		byID[spans[i].ctx.Span] = &spans[i]
	}
	// tidOf resolves a span's track by walking parent links; depth is
	// bounded to survive (impossible in-process, possible cross-process)
	// parent cycles.
	var tidOf func(s *Span, depth int) int64
	tidOf = func(s *Span, depth int) int64 {
		if s == nil || depth > 64 {
			return 0
		}
		if v, ok := attrInt(s.Attr(TIDAttr)); ok {
			return v
		}
		return tidOf(byID[s.Parent], depth+1)
	}

	var base time.Time
	for i := range spans {
		if base.IsZero() || spans[i].Start.Before(base) {
			base = spans[i].Start
		}
	}

	doc := chromeFile{DisplayTimeUnit: "ms", TraceEvents: make([]chromeEvent, 0, len(spans)+8)}
	threadNames := map[int64]string{}
	for i := range spans {
		s := &spans[i]
		tid := tidOf(s, 0)
		if name, ok := s.Attr(ThreadAttr).(string); ok && threadNames[tid] == "" {
			threadNames[tid] = name
		}
		args := make(map[string]any, len(s.Attrs)+1)
		for _, a := range s.Attrs {
			args[a.Key] = a.Value
		}
		args["traceId"] = s.ctx.Trace.String()
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: s.Name,
			Cat:  "span",
			Ph:   "X",
			TS:   float64(s.Start.Sub(base).Nanoseconds()) / 1e3,
			Dur:  float64(s.Finish.Sub(s.Start).Nanoseconds()) / 1e3,
			PID:  1,
			TID:  tid,
			Args: args,
		})
	}
	// Process/thread metadata, in stable tid order.
	tids := make([]int64, 0, len(threadNames))
	for tid := range threadNames {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	meta := []chromeEvent{{
		Name: "process_name", Ph: "M", PID: 1, TID: 0,
		Args: map[string]any{"name": "specctrl"},
	}}
	for _, tid := range tids {
		meta = append(meta, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": threadNames[tid]},
		})
	}
	doc.TraceEvents = append(meta, doc.TraceEvents...)

	enc := json.NewEncoder(w)
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("span: writing chrome trace: %w", err)
	}
	return nil
}
