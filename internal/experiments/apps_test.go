package experiments

import (
	"strings"
	"testing"

	"specctrl/internal/conf"
	"specctrl/internal/obs/span"
	"specctrl/internal/pipeline"
	"specctrl/internal/policy"
	"specctrl/internal/workload"
)

// gatingParams runs policied cells at the scale the gating trade-off
// is measured at, through a private cache so no test shares cells with
// another through the process memo.
func gatingParams() Params {
	p := TestParams()
	p.MaxCommitted = 150_000
	p.Cache = newMemoCells()
	return p
}

// gatedRuns returns the workload's baseline followed by one JRS-gated
// run per threshold, all through the policied grid.
func gatedRuns(t *testing.T, p Params, wl string, thresholds ...int) (base *pipeline.Stats, gated []*pipeline.Stats) {
	t.Helper()
	runs := []policiedRun{{workload: wl}}
	for _, thr := range thresholds {
		runs = append(runs, policiedRun{workload: wl, estimator: "JRS(t=15)",
			policy: policy.Gating{Threshold: thr}.Name()})
	}
	stats, err := p.policiedStats(runs)
	if err != nil {
		t.Fatal(err)
	}
	return stats[0], stats[1:]
}

// TestGatingReducesExtraWork: on a hostile workload (go), gating at
// threshold 2 removes a substantial share of wrong-path work at a
// modest slowdown (the Manne et al. trade-off), and the aggressive
// threshold 1 removes more.
func TestGatingReducesExtraWork(t *testing.T) {
	base, g := gatedRuns(t, gatingParams(), "go", 1, 2)
	g1, g2 := g[0], g[1]
	if red := extraWorkReduction(base, g2); red < 0.15 {
		t.Errorf("gate:2 extra-work reduction %.3f, want >= 15%%", red)
	}
	if slow := gatingSlowdown(base, g2); slow > 0.15 {
		t.Errorf("gate:2 slowdown %.3f too high", slow)
	}
	if g2.GatedCycles == 0 {
		t.Error("gate:2 gated no cycles")
	}
	if extraWorkReduction(base, g1) <= extraWorkReduction(base, g2) {
		t.Error("gate:1 should remove more extra work than gate:2")
	}
}

// TestHigherThresholdGatesLess: threshold 3 gates fewer cycles than
// threshold 1, at no greater slowdown.
func TestHigherThresholdGatesLess(t *testing.T) {
	base, g := gatedRuns(t, gatingParams(), "go", 1, 3)
	g1, g3 := g[0], g[1]
	if g3.GatedCycles >= g1.GatedCycles {
		t.Errorf("gate:3 gated %d cycles, gate:1 gated %d; want fewer",
			g3.GatedCycles, g1.GatedCycles)
	}
	if s3, s1 := gatingSlowdown(base, g3), gatingSlowdown(base, g1); s3 > s1+0.01 {
		t.Errorf("gate:3 slowdown %.3f should not exceed gate:1 %.3f", s3, s1)
	}
}

// TestGatingPreservesArchitecturalWork: gating changes timing only, so
// both capped runs commit the same work within a fetch group.
func TestGatingPreservesArchitecturalWork(t *testing.T) {
	base, g := gatedRuns(t, gatingParams(), "compress", 1)
	if diff := int64(g[0].Committed) - int64(base.Committed); diff < -8 || diff > 8 {
		t.Errorf("committed work differs: baseline %d gated %d", base.Committed, g[0].Committed)
	}
}

// TestBetterEstimatorGatesBetter: gating on an estimator that flags
// every branch low-confidence stalls far more than gating on JRS.
func TestBetterEstimatorGatesBetter(t *testing.T) {
	p := gatingParams()
	base, g := gatedRuns(t, p, "compress", 1)
	w, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	p.Pipeline.Policy = policy.Gating{Threshold: 1}
	blind, err := p.runOne(w, GshareSpec(), conf.Always{High: false})
	if err != nil {
		t.Fatal(err)
	}
	if jrs, all := gatingSlowdown(base, g[0]), gatingSlowdown(base, blind); jrs >= all {
		t.Errorf("JRS slowdown %.3f should beat always-low-confidence %.3f", jrs, all)
	}
}

// TestDegenerateRatiosReportZero: capped or empty runs never divide by
// a zero baseline; every degenerate shape reports 0 instead of NaN/Inf.
func TestDegenerateRatiosReportZero(t *testing.T) {
	cases := []struct {
		name        string
		base, gated pipeline.Stats
	}{
		{"all zero", pipeline.Stats{}, pipeline.Stats{}},
		{"zero baseline cycles",
			pipeline.Stats{Committed: 10}, pipeline.Stats{Committed: 10, Cycles: 5}},
		{"zero baseline committed",
			pipeline.Stats{Cycles: 5}, pipeline.Stats{Committed: 10, Cycles: 5}},
		{"zero gated committed",
			pipeline.Stats{Committed: 10, Cycles: 5}, pipeline.Stats{Cycles: 5}},
		{"zero baseline wrong-path",
			pipeline.Stats{Committed: 10, Cycles: 5}, pipeline.Stats{Committed: 10, Cycles: 5, WrongPath: 3}},
	}
	for _, tc := range cases {
		if got := gatingSlowdown(&tc.base, &tc.gated); got != 0 {
			t.Errorf("%s: slowdown = %v, want 0", tc.name, got)
		}
		if got := extraWorkReduction(&tc.base, &tc.gated); got != 0 {
			t.Errorf("%s: extra-work reduction = %v, want 0", tc.name, got)
		}
	}
	// A non-degenerate pair still computes real ratios.
	base := &pipeline.Stats{Committed: 100, Cycles: 100, WrongPath: 40}
	gated := &pipeline.Stats{Committed: 100, Cycles: 110, WrongPath: 10}
	if got := gatingSlowdown(base, gated); got < 0.099 || got > 0.101 {
		t.Errorf("slowdown = %v, want ~0.10", got)
	}
	if got := extraWorkReduction(base, gated); got != 0.75 {
		t.Errorf("extra-work reduction = %v, want 0.75", got)
	}
}

// TestSMTCellsReportCycles: an SMT cell returns no single-thread Stats,
// so it must put its threads' simulated cycles on its own cell span, or
// -profile-cells reports it as zero work.
func TestSMTCellsReportCycles(t *testing.T) {
	p := TestParams()
	p.MaxCommitted = 40_000
	p.Tracer = span.New(span.Options{})
	if _, err := SMTStudy(p); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, s := range p.Tracer.Snapshot() {
		if !strings.HasPrefix(s.Name, "cell:smt/") {
			continue
		}
		n++
		if c, _ := s.Attr("cycles").(int64); c <= 0 {
			t.Errorf("%s: cycles = %v, want > 0", s.Name, s.Attr("cycles"))
		}
	}
	if want := 3 * len(smtPolicies); n != want {
		t.Errorf("%d smt cell spans, want %d", n, want)
	}
}
