// Package span is the repository's zero-dependency distributed-span
// tracer: wall-clock spans with trace/span IDs and parent links,
// W3C-traceparent-style propagation across process boundaries (simctrl
// -server → simserved), a bounded in-memory store with head sampling,
// and two exporters over that store — an NDJSON /debug/traces HTTP
// handler, and Chrome trace-event JSON that renders a full sweep as a
// per-worker timeline in Perfetto or chrome://tracing.
//
// Where internal/obs meters the *simulated machine* (cycle accounting,
// misprediction buckets), span meters the *simulator* itself: which
// cells, queue waits, record passes and cache misses a sweep's wall
// clock went to, across the runner → serve → replay stack.
//
// # Cost model
//
// Tracing is off by default and off means free: every entry point is a
// method on a possibly-nil *Tracer or *Span, so the instrumented hot
// paths pay exactly one nil-check and zero allocations when disabled
// (TestSpanDisabledAllocs pins the zero; BenchmarkSpanOverhead times
// it).
// Enabled tracing allocates only at span granularity — per grid cell,
// HTTP request, or record pass — never per simulated cycle.
//
// # Typical wiring
//
//	tr := span.New(span.Options{})           // sample everything
//	root := tr.Root("exp:fig4")
//	child := tr.Child(root.Context(), "record", span.Str("workload", "gcc"))
//	child.End()
//	root.End()
//	_ = span.WriteChrome(f, tr.Snapshot())   // open in Perfetto
package span
