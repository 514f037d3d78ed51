package span

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestHandlerServesNDJSONAndStats(t *testing.T) {
	tr := New(Options{Capacity: 4})
	root := tr.Root("root", Str("experiment", "fig4"))
	child := tr.Child(root.Context(), "cell", Int("worker", 3))
	child.End()
	root.End()

	rec := httptest.NewRecorder()
	Handler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /debug/traces: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("served %d spans, want 2", len(lines))
	}
	spans := make([]spanJSON, len(lines))
	for i, line := range lines {
		if err := json.Unmarshal([]byte(line), &spans[i]); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
	}
	// Oldest first, and the child ends first.
	cell, top := spans[0], spans[1]
	if cell.Name != "cell" || top.Name != "root" {
		t.Errorf("lines = %q, %q", cell.Name, top.Name)
	}
	if cell.TraceID != top.TraceID {
		t.Error("spans do not share a trace ID")
	}
	if cell.ParentID != top.SpanID {
		t.Error("child's parentId is not the root's spanId")
	}
	if top.ParentID != "" {
		t.Error("root has a parentId")
	}
	if w, ok := cell.Attrs["worker"].(float64); !ok || w != 3 {
		t.Errorf("worker attr = %v", cell.Attrs["worker"])
	}
	if e, ok := top.Attrs["experiment"].(string); !ok || e != "fig4" {
		t.Errorf("experiment attr = %v", top.Attrs["experiment"])
	}

	rec = httptest.NewRecorder()
	Handler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?stats=1", nil))
	var st Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Capacity != 4 || st.Stored != 2 || st.Utilization != 0.5 {
		t.Errorf("stats = %+v, want capacity 4 / stored 2 / utilization 0.5", st)
	}

	rec = httptest.NewRecorder()
	Handler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 404 {
		t.Errorf("nil-tracer handler returned %d, want 404", rec.Code)
	}
}

func TestWriteChrome(t *testing.T) {
	tr := New(Options{})
	root := tr.Root("exp:fig4")
	cellA := tr.Child(root.Context(), "cell:fig4/gcc/gshare/main",
		Int(TIDAttr, 1), Str(ThreadAttr, "worker 0"), Str("key", "fig4/gcc/gshare/main"))
	// Child without its own tid: must inherit worker 1's track.
	rec := tr.Child(cellA.Context(), "record")
	time.Sleep(time.Millisecond)
	rec.End()
	cellA.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int64          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	byName := map[string]int64{}
	var haveThreadMeta bool
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			byName[e.Name] = e.TID
			if e.TS < 0 || e.Dur < 0 {
				t.Errorf("event %s has negative ts/dur", e.Name)
			}
		case "M":
			if e.Name == "thread_name" && e.TID == 1 && e.Args["name"] == "worker 0" {
				haveThreadMeta = true
			}
		}
	}
	if len(byName) != 3 {
		t.Fatalf("chrome trace has %d slices, want 3", len(byName))
	}
	if byName["cell:fig4/gcc/gshare/main"] != 1 {
		t.Error("cell span not on its tid track")
	}
	if byName["record"] != 1 {
		t.Error("record child did not inherit its parent's tid track")
	}
	if byName["exp:fig4"] != 0 {
		t.Error("root not on track 0")
	}
	if !haveThreadMeta {
		t.Error("missing thread_name metadata for worker track")
	}
}

func TestWriteChromeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
}
