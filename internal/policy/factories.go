package policy

import (
	"fmt"

	"specctrl/internal/bpred"
	"specctrl/internal/conf"
	"specctrl/internal/pipeline"
)

// Factories bundles the per-run component constructors every
// speculation-control driver takes — the one options type behind
// gating.Run, smt.Run/Compare, and eager.Model.Measure,
// replacing those packages' old positional `newPred, newEst` argument
// pairs. Factories (not instances) because predictors, most estimators,
// and stateful policies carry run state: each simulated run gets a
// fresh private set.
type Factories struct {
	// Predictor constructs the branch predictor. Required.
	Predictor func() bpred.Predictor
	// Estimator constructs the confidence estimator the policy keys
	// off (installed as the run's first estimator). Required.
	Estimator func() conf.Estimator
	// Policy constructs the speculation-control policy. Optional: when
	// nil, each driver falls back to its own default (gating builds the
	// paper's Gating policy from its threshold; smt installs none).
	Policy func() pipeline.Policy
}

// MissingFieldError reports a required Factories field left nil,
// naming it.
type MissingFieldError struct {
	// Field is the nil Factories field, e.g. "Predictor".
	Field string
}

func (e *MissingFieldError) Error() string {
	return fmt.Sprintf("policy: Factories.%s is required and nil", e.Field)
}

// Validate checks that the required constructors are present; failures
// are *MissingFieldError values naming the field.
func (f Factories) Validate() error {
	if f.Predictor == nil {
		return &MissingFieldError{"Predictor"}
	}
	if f.Estimator == nil {
		return &MissingFieldError{"Estimator"}
	}
	return nil
}

// NewPolicy constructs the configured policy, or returns nil when none
// was configured.
func (f Factories) NewPolicy() pipeline.Policy {
	if f.Policy == nil {
		return nil
	}
	return f.Policy()
}
