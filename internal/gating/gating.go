// Package gating implements pipeline gating, the power-conservation
// application of confidence estimation the paper motivates (§2.2,
// "Power conservation", and its companion ISCA'98 paper by Manne et al.).
//
// Mechanism: the front end counts in-flight *low-confidence* branches;
// when the count reaches the gating threshold, instruction fetch is
// gated (stalled) until a branch resolves. Gating trades a small
// slowdown for a large reduction in *extra work* — wrong-path
// instructions that would be fetched, decoded and executed only to be
// squashed. The confidence estimator's SPEC and PVN govern the trade:
// high SPEC exposes more gating opportunities, high PVN keeps the
// slowdown low because the gated paths really were doomed.
//
// The gated machine is driven by a speculation-control policy installed
// into the pipeline (pipeline.Config.Policy); Run defaults to the
// paper's policy.Gating at Config.Threshold, and callers can substitute
// any other policy (throttling, boosting) through policy.Factories.
// Result holds the extra-work and slowdown formulas; the abl-gating
// experiment, which simulates its runs as shared grid cells, folds them
// through Result too.
package gating

import (
	"fmt"

	"specctrl/internal/conf"
	"specctrl/internal/isa"
	"specctrl/internal/pipeline"
	"specctrl/internal/policy"
)

// Config parameterizes a gating run.
type Config struct {
	// Threshold gates fetch while the number of in-flight
	// low-confidence branches is >= Threshold. Manne et al. found small
	// thresholds (1-2) effective. It parameterizes the default
	// policy.Gating; a Factories.Policy override supersedes it.
	Threshold int
	// Pipeline is the underlying machine configuration.
	Pipeline pipeline.Config
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Threshold < 1 {
		return fmt.Errorf("gating: threshold %d < 1", c.Threshold)
	}
	return c.Pipeline.Validate()
}

// Result compares a policied run against its unpolicied baseline on the
// same program, predictor configuration and estimator configuration.
type Result struct {
	Baseline *pipeline.Stats
	Gated    *pipeline.Stats
}

// ExtraWorkReduction returns the fraction of wrong-path instructions
// eliminated by gating; degenerate runs with no baseline wrong-path
// work report 0.
func (r Result) ExtraWorkReduction() float64 {
	if r.Baseline.WrongPath == 0 {
		return 0
	}
	return 1 - float64(r.Gated.WrongPath)/float64(r.Baseline.WrongPath)
}

// Slowdown returns the relative execution-time increase of the gated run
// (cycles per committed instruction, so capped runs compare fairly).
// Degenerate runs — either side committing nothing, or a zero-cycle
// baseline — report 0 rather than dividing by it.
func (r Result) Slowdown() float64 {
	if r.Baseline.Cycles == 0 || r.Baseline.Committed == 0 || r.Gated.Committed == 0 {
		return 0
	}
	base := float64(r.Baseline.Cycles) / float64(r.Baseline.Committed)
	gated := float64(r.Gated.Cycles) / float64(r.Gated.Committed)
	return gated/base - 1
}

// Run executes the baseline and the policied simulation from the given
// factories (fresh instances per run; tables start cold in both). The
// policy defaults to the paper's pipeline gating at cfg.Threshold when
// f.Policy is nil. The baseline is unpolicied by definition: any policy
// already installed on cfg.Pipeline is ignored by both runs.
func Run(cfg Config, prog *isa.Program, f policy.Factories) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	pcfg := cfg.Pipeline
	pcfg.Estimators = []conf.Estimator{f.Estimator()}
	pcfg.Policy = nil
	base, err := pipeline.New(pcfg, prog, f.Predictor())
	if err != nil {
		return nil, fmt.Errorf("gating baseline: %w", err)
	}
	baseStats, err := base.Run()
	if err != nil {
		return nil, fmt.Errorf("gating baseline: %w", err)
	}

	gcfg := cfg.Pipeline
	gcfg.Estimators = []conf.Estimator{f.Estimator()}
	if gcfg.Policy = f.NewPolicy(); gcfg.Policy == nil {
		gcfg.Policy = policy.Gating{Threshold: cfg.Threshold}
	}
	sim, err := pipeline.New(gcfg, prog, f.Predictor())
	if err != nil {
		return nil, fmt.Errorf("gating run: %w", err)
	}
	gatedStats, err := sim.Run()
	if err != nil {
		return nil, fmt.Errorf("gating run: %w", err)
	}
	return &Result{Baseline: baseStats, Gated: gatedStats}, nil
}
