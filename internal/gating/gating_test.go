package gating

import (
	"errors"
	"testing"

	"specctrl/internal/bpred"
	"specctrl/internal/conf"
	"specctrl/internal/isa"
	"specctrl/internal/pipeline"
	"specctrl/internal/policy"
	"specctrl/internal/workload"
)

func pcfg() pipeline.Config {
	c := pipeline.DefaultConfig()
	c.MaxCommitted = 150_000
	c.MaxCycles = 20_000_000
	return c
}

func buildProg(t *testing.T, name string) *isa.Program {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w.Build(1 << 30)
}

func newGshare() bpred.Predictor { return bpred.NewGshare(12) }

func newJRS() conf.Estimator { return conf.NewJRS(conf.DefaultJRS) }

func jrsFactories() policy.Factories {
	return policy.Factories{Predictor: newGshare, Estimator: newJRS}
}

func TestGatingReducesExtraWork(t *testing.T) {
	// On a hostile workload (go), gating at the threshold-2 operating
	// point must remove a substantial share of wrong-path work at a
	// modest slowdown (the Manne et al. trade-off).
	cfg := Config{Threshold: 2, Pipeline: pcfg()}
	r, err := Run(cfg, buildProg(t, "go"), jrsFactories())
	if err != nil {
		t.Fatal(err)
	}
	if red := r.ExtraWorkReduction(); red < 0.15 {
		t.Errorf("extra-work reduction %.3f, want >= 15%%", red)
	}
	if slow := r.Slowdown(); slow > 0.15 {
		t.Errorf("slowdown %.3f too high", slow)
	}
	if r.Gated.GatedCycles == 0 {
		t.Error("no cycles were actually gated")
	}
	// The aggressive threshold-1 point trades much more slowdown for
	// much more reduction.
	r1, err := Run(Config{Threshold: 1, Pipeline: pcfg()}, buildProg(t, "go"), jrsFactories())
	if err != nil {
		t.Fatal(err)
	}
	if r1.ExtraWorkReduction() <= r.ExtraWorkReduction() {
		t.Error("threshold 1 should remove more extra work than threshold 2")
	}
}

func TestGatingPreservesArchitecturalWork(t *testing.T) {
	// Gating changes timing only: committed counts must match.
	cfg := Config{Threshold: 1, Pipeline: pcfg()}
	r, err := Run(cfg, buildProg(t, "compress"), jrsFactories())
	if err != nil {
		t.Fatal(err)
	}
	// Both runs cap at MaxCommitted; committed work must agree within a
	// fetch group.
	diff := int64(r.Gated.Committed) - int64(r.Baseline.Committed)
	if diff < -8 || diff > 8 {
		t.Errorf("committed work differs: baseline %d gated %d",
			r.Baseline.Committed, r.Gated.Committed)
	}
}

func TestHigherThresholdGatesLess(t *testing.T) {
	prog := buildProg(t, "go")
	r1, err := Run(Config{Threshold: 1, Pipeline: pcfg()}, prog, jrsFactories())
	if err != nil {
		t.Fatal(err)
	}
	r3, err := Run(Config{Threshold: 3, Pipeline: pcfg()}, prog, jrsFactories())
	if err != nil {
		t.Fatal(err)
	}
	if r3.Gated.GatedCycles >= r1.Gated.GatedCycles {
		t.Errorf("threshold 3 gated %d cycles, threshold 1 gated %d; want fewer",
			r3.Gated.GatedCycles, r1.Gated.GatedCycles)
	}
	if r3.Slowdown() > r1.Slowdown()+0.01 {
		t.Errorf("threshold 3 slowdown %.3f should not exceed threshold 1 %.3f",
			r3.Slowdown(), r1.Slowdown())
	}
}

func TestBetterEstimatorGatesBetter(t *testing.T) {
	// Gating with AlwaysLC gates on every branch — big slowdown.
	// Gating with a real estimator must hurt much less per unit of
	// extra work removed.
	prog := buildProg(t, "compress")
	blind, err := Run(Config{Threshold: 1, Pipeline: pcfg()}, prog, policy.Factories{
		Predictor: newGshare,
		Estimator: func() conf.Estimator { return conf.Always{High: false} },
	})
	if err != nil {
		t.Fatal(err)
	}
	jrs, err := Run(Config{Threshold: 1, Pipeline: pcfg()}, prog, jrsFactories())
	if err != nil {
		t.Fatal(err)
	}
	if jrs.Slowdown() >= blind.Slowdown() {
		t.Errorf("JRS slowdown %.3f should beat AlwaysLC %.3f",
			jrs.Slowdown(), blind.Slowdown())
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Threshold: 0, Pipeline: pcfg()}).Validate(); err == nil {
		t.Error("threshold 0 accepted")
	}
	if err := (Config{Threshold: 1, Pipeline: pipeline.Config{}}).Validate(); err == nil {
		t.Error("invalid pipeline accepted")
	}
}

func TestDegenerateRatiosReportZero(t *testing.T) {
	// Capped or empty runs must never divide by a zero baseline: every
	// degenerate shape reports 0 instead of NaN/Inf.
	cases := []struct {
		name string
		r    Result
	}{
		{"all zero", Result{Baseline: &pipeline.Stats{}, Gated: &pipeline.Stats{}}},
		{"zero baseline cycles", Result{
			Baseline: &pipeline.Stats{Committed: 10},
			Gated:    &pipeline.Stats{Committed: 10, Cycles: 5},
		}},
		{"zero baseline committed", Result{
			Baseline: &pipeline.Stats{Cycles: 5},
			Gated:    &pipeline.Stats{Committed: 10, Cycles: 5},
		}},
		{"zero gated committed", Result{
			Baseline: &pipeline.Stats{Committed: 10, Cycles: 5},
			Gated:    &pipeline.Stats{Cycles: 5},
		}},
		{"zero baseline wrong-path", Result{
			Baseline: &pipeline.Stats{Committed: 10, Cycles: 5},
			Gated:    &pipeline.Stats{Committed: 10, Cycles: 5, WrongPath: 3},
		}},
	}
	for _, tc := range cases {
		if got := tc.r.Slowdown(); got != 0 {
			t.Errorf("%s: Slowdown() = %v, want 0", tc.name, got)
		}
		if got := tc.r.ExtraWorkReduction(); got != 0 {
			t.Errorf("%s: ExtraWorkReduction() = %v, want 0", tc.name, got)
		}
	}
	// Sanity: a non-degenerate result still computes real ratios.
	r := Result{
		Baseline: &pipeline.Stats{Committed: 100, Cycles: 100, WrongPath: 40},
		Gated:    &pipeline.Stats{Committed: 100, Cycles: 110, WrongPath: 10},
	}
	if got := r.Slowdown(); got < 0.099 || got > 0.101 {
		t.Errorf("Slowdown() = %v, want ~0.10", got)
	}
	if got := r.ExtraWorkReduction(); got != 0.75 {
		t.Errorf("ExtraWorkReduction() = %v, want 0.75", got)
	}
}

func TestRunRejectsIncompleteFactories(t *testing.T) {
	var missing *policy.MissingFieldError
	_, err := Run(Config{Threshold: 1, Pipeline: pcfg()}, buildProg(t, "compress"),
		policy.Factories{Predictor: newGshare})
	if !errors.As(err, &missing) || missing.Field != "Estimator" {
		t.Errorf("Run without estimator: err = %v, want MissingFieldError{Estimator}", err)
	}
	_, err = Run(Config{Threshold: 1, Pipeline: pcfg()}, buildProg(t, "compress"),
		policy.Factories{Estimator: newJRS})
	if !errors.As(err, &missing) || missing.Field != "Predictor" {
		t.Errorf("Run without predictor: err = %v, want MissingFieldError{Predictor}", err)
	}
}

func TestRunIgnoresBaseConfigPolicy(t *testing.T) {
	// The baseline is unpolicied by definition, and the gated run
	// installs only its own policy: a policy already on cfg.Pipeline
	// changes neither.
	prog := buildProg(t, "compress")
	plain, err := Run(Config{Threshold: 2, Pipeline: pcfg()}, prog, jrsFactories())
	if err != nil {
		t.Fatal(err)
	}
	cfg := pcfg()
	cfg.Policy = policy.Throttle{Levels: []int{1}}
	r, err := Run(Config{Threshold: 2, Pipeline: cfg}, prog, jrsFactories())
	if err != nil {
		t.Fatal(err)
	}
	if r.Baseline.Cycles != plain.Baseline.Cycles || r.Gated.Cycles != plain.Gated.Cycles {
		t.Errorf("base-config policy changed the runs: baseline %d vs %d cycles, gated %d vs %d",
			r.Baseline.Cycles, plain.Baseline.Cycles, r.Gated.Cycles, plain.Gated.Cycles)
	}
}

func TestRunWithExplicitPolicy(t *testing.T) {
	// A Factories.Policy override supersedes Config.Threshold: a
	// full-width throttle gates nothing even at threshold 1.
	f := jrsFactories()
	f.Policy = func() pipeline.Policy {
		return policy.Throttle{Levels: []int{16}}
	}
	r, err := Run(Config{Threshold: 1, Pipeline: pcfg()}, buildProg(t, "go"), f)
	if err != nil {
		t.Fatal(err)
	}
	if r.Gated.GatedCycles != 0 {
		t.Errorf("full-width throttle gated %d cycles, want 0", r.Gated.GatedCycles)
	}
}
