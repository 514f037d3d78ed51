// Package eager models the eager (dual-path) execution application of
// confidence estimation (§2.2, "Eager Execution"; Klauser et al.'s
// PolyPath work [8]).
//
// An eager-execution machine forks at a low-confidence branch and fetches
// both successor paths; when the branch resolves, the wrong path is
// killed. Forking converts a potential full misprediction penalty into a
// bounded fork cost (both paths get half the front-end bandwidth until
// resolution), so the profitability of a confidence estimator follows
// directly from its committed-branch quadrants:
//
//   - Ilc (mispredicted, flagged low confidence): penalty avoided at the
//     fork cost — the win case, governed by SPEC.
//   - Clc (correct, flagged low confidence): fork cost wasted — the
//     false-alarm case, governed by PVN.
//   - Ihc (mispredicted, flagged high confidence): full penalty, as in
//     the baseline.
//
// The package evaluates this model over measured quadrants rather than
// simulating dual-path timing directly; the trade-off surface (which
// estimator wins, and when forking helps at all) is exactly the paper's
// argument that eager execution wants high PVN and SPEC.
package eager

import (
	"fmt"

	"specctrl/internal/metrics"
)

// Model holds the cost parameters of the dual-path machine.
type Model struct {
	// MispredictPenalty is the cycles lost per misprediction in the
	// baseline machine (redirect + refill).
	MispredictPenalty float64
	// ForkCost is the cycles of front-end bandwidth lost per forked
	// branch (both paths share fetch until resolution).
	ForkCost float64
}

// DefaultModel matches the simulator's default timing: a ~7-cycle
// misprediction penalty (3-cycle resolve + 1 redirect + 3 extra) and a
// 2-cycle effective fork cost (half bandwidth over a 3-4 cycle window).
func DefaultModel() Model {
	return Model{MispredictPenalty: 7, ForkCost: 2}
}

// Validate checks the model.
func (m Model) Validate() error {
	if m.MispredictPenalty <= 0 || m.ForkCost < 0 {
		return fmt.Errorf("eager: invalid model %+v", m)
	}
	if m.ForkCost >= m.MispredictPenalty {
		return fmt.Errorf("eager: fork cost %.1f must undercut the penalty %.1f",
			m.ForkCost, m.MispredictPenalty)
	}
	return nil
}

// Outcome is the model's evaluation of one estimator's quadrants.
type Outcome struct {
	// BaselineCost is branch-misprediction cycles per 1000 committed
	// branches without eager execution.
	BaselineCost float64
	// EagerCost is the same with confidence-directed forking.
	EagerCost float64
	// Forks is forks per 1000 committed branches (Clc + Ilc).
	Forks float64
	// SavedPerKilo is BaselineCost - EagerCost.
	SavedPerKilo float64
}

// Profitable reports whether forking on this estimator's low-confidence
// branches beats the baseline.
func (o Outcome) Profitable() bool { return o.SavedPerKilo > 0 }

// Evaluate applies the model to a committed-branch quadrant table.
func (m Model) Evaluate(q metrics.Quadrant) (Outcome, error) {
	if err := m.Validate(); err != nil {
		return Outcome{}, err
	}
	total := float64(q.Total())
	if total == 0 {
		return Outcome{}, fmt.Errorf("eager: empty quadrant")
	}
	scale := 1000.0 / total
	baseline := float64(q.Incorrect()) * m.MispredictPenalty * scale
	// Eager: every low-confidence branch forks (costs ForkCost); only
	// high-confidence mispredictions still pay the full penalty.
	eager := (float64(q.Clc)+float64(q.Ilc))*m.ForkCost*scale +
		float64(q.Ihc)*m.MispredictPenalty*scale
	return Outcome{
		BaselineCost: baseline,
		EagerCost:    eager,
		Forks:        (float64(q.Clc) + float64(q.Ilc)) * scale,
		SavedPerKilo: baseline - eager,
	}, nil
}
