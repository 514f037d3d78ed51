package synth

import "testing"

// buildLargest generates the largest paper-fit program (96 sites with
// global, hard, and biased classes) — the cost paid once per
// (workload, iters) by the experiment layer's program cache.
func buildLargest() {
	MustBuild(PaperTargets()[1].Profile, 1<<30) // gcc stand-in: 96 sites
}

// BenchmarkSynthBuild times buildLargest.
func BenchmarkSynthBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildLargest()
	}
}

// TestSynthBuildAllocs bounds buildLargest's heap allocations about
// 10% above the count measured under the race detector (260; 206
// without it), so an allocation per emitted instruction fails it.
func TestSynthBuildAllocs(t *testing.T) {
	const max = 290
	n := testing.AllocsPerRun(5, buildLargest)
	t.Logf("%.0f allocations", n)
	if n > max {
		t.Errorf("building the largest paper-fit program allocates %.0f times, want at most %d", n, max)
	}
}
