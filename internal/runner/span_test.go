package runner

import (
	"context"
	"strings"
	"sync"
	"testing"

	"specctrl/internal/obs/span"
)

// TestRunEmitsCellSpans: with a tracer attached, every cell produces a
// run span and a queue-wait span under one trace, the run span carries
// the cell key and a worker attribute, and the cell's context exposes
// the span so cell bodies can parent their own spans under it. Run with
// -race this also exercises concurrent span emission from all workers.
func TestRunEmitsCellSpans(t *testing.T) {
	tr := span.New(span.Options{})
	root := tr.Root("grid:test")
	specs := grid(48)
	sawCtx := 0
	var mu sync.Mutex
	cell := func(ctx context.Context, sp Spec) (struct{}, error) {
		if cs := span.FromContext(ctx); cs != nil {
			// Child spans from inside the cell must be legal concurrently.
			c := tr.Child(cs.Context(), "body:"+sp.Key())
			c.End()
			mu.Lock()
			sawCtx++
			mu.Unlock()
		}
		return struct{}{}, nil
	}
	res, err := Run(context.Background(), Options{Jobs: 8, Tracer: tr, SpanParent: root.Context()}, specs, cell)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if len(res) != len(specs) {
		t.Fatalf("got %d results, want %d", len(res), len(specs))
	}
	if sawCtx != len(specs) {
		t.Fatalf("cell span reached %d of %d cell contexts", sawCtx, len(specs))
	}

	spans := tr.Snapshot()
	var traces = map[span.TraceID]bool{}
	cellSpans, waitSpans, bodySpans := 0, 0, 0
	for i := range spans {
		s := &spans[i]
		traces[s.Context().Trace] = true
		switch {
		case strings.HasPrefix(s.Name, "cell:"):
			cellSpans++
			if s.Attr("key") == nil || s.Attr("worker") == nil {
				t.Errorf("%s missing key/worker attrs: %+v", s.Name, s.Attrs)
			}
			if s.Finish.Before(s.Start) {
				t.Errorf("%s finishes before it starts", s.Name)
			}
		case strings.HasPrefix(s.Name, "wait:"):
			waitSpans++
		case strings.HasPrefix(s.Name, "body:"):
			bodySpans++
		}
	}
	if cellSpans != len(specs) || waitSpans != len(specs) || bodySpans != len(specs) {
		t.Fatalf("spans: %d cell, %d wait, %d body; want %d of each",
			cellSpans, waitSpans, bodySpans, len(specs))
	}
	if len(traces) != 1 {
		t.Fatalf("run emitted %d TraceIDs, want 1", len(traces))
	}
}

// TestRunNilTracerNoSpans: the default path stays span-free — no
// tracer, no span in the cell context.
func TestRunNilTracerNoSpans(t *testing.T) {
	cell := func(ctx context.Context, sp Spec) (struct{}, error) {
		if span.FromContext(ctx) != nil {
			t.Error("cell context carries a span with tracing disabled")
		}
		return struct{}{}, nil
	}
	if _, err := Run(context.Background(), Options{Jobs: 4}, grid(8), cell); err != nil {
		t.Fatal(err)
	}
}
