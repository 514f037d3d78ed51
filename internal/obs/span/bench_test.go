package span

import "testing"

// BenchmarkSpanOverhead measures the disabled-tracing path the runner
// pays on every grid cell: a Child/End pair against a nil tracer. The
// contract is one nil-check and zero allocations
// (TestSpanDisabledAllocs), so leaving instrumentation compiled into
// the hot path costs nothing when tracing is off.
func BenchmarkSpanOverhead(b *testing.B) {
	var tr *Tracer
	var parent Context
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := tr.Child(parent, "cell")
		s.SetAttrs()
		s.End()
	}
}

// BenchmarkSpanEnabled is the enabled-path cost per span (for sizing,
// not gated: it allocates by design).
func BenchmarkSpanEnabled(b *testing.B) {
	tr := New(Options{Capacity: 1024})
	root := tr.Root("root")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := tr.Child(root.Context(), "cell")
		s.End()
	}
}

// TestSpanDisabledAllocs pins the disabled path to zero allocations.
func TestSpanDisabledAllocs(t *testing.T) {
	var tr *Tracer
	var parent Context
	if n := testing.AllocsPerRun(1000, func() {
		s := tr.Child(parent, "cell")
		s.SetAttrs()
		s.End()
	}); n != 0 {
		t.Fatalf("disabled tracing allocates %v times per span", n)
	}
}
