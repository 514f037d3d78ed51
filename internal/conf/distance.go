package conf

import (
	"fmt"

	"specctrl/internal/bpred"
)

// Distance is the paper's misprediction-distance estimator (§4.1):
// effectively a JRS estimator collapsed to a *single* global miss
// distance counter. It exploits the clustering of branch mispredictions —
// branches fetched shortly after a detected misprediction are much more
// likely to be mispredicted themselves — so a branch is high confidence
// only when more than Threshold branches have been fetched since the
// last *resolved* misprediction.
//
// The counter advances on every fetched conditional branch (Estimate is
// called for wrong-path branches too; a real implementation counts
// fetched branches, not committed ones) and resets when a misprediction
// is detected at resolution.
type Distance struct {
	// Threshold: high confidence when the distance is > Threshold.
	Threshold int
	count     int
}

// NewDistance returns a distance estimator; it panics on negative
// thresholds.
func NewDistance(threshold int) *Distance {
	if threshold < 0 {
		panic(fmt.Sprintf("conf: negative distance threshold %d", threshold))
	}
	return &Distance{Threshold: threshold}
}

// Name implements Estimator.
func (d *Distance) Name() string { return fmt.Sprintf("Dist(>%d)", d.Threshold) }

// Estimate implements Estimator: classify this branch by the current
// distance, then count it.
func (d *Distance) Estimate(pc int64, info bpred.Info) bool {
	hc := d.count > d.Threshold
	d.count++
	return hc
}

// Resolve implements Estimator: a detected misprediction resets the
// global counter.
func (d *Distance) Resolve(pc int64, info bpred.Info, correct bool) {
	if !correct {
		d.count = 0
	}
}

// Count exposes the current distance (for tests and diagnostics).
func (d *Distance) Count() int { return d.count }

// Always is a reference estimator that reports a fixed confidence for
// every branch: Always{true} marks everything high confidence (its PVN
// is undefined and its SENS is 1), Always{false} marks everything low
// confidence (its PVN equals the misprediction rate — the paper's
// "threshold 16" end point).
type Always struct {
	High bool
}

// Name implements Estimator.
func (a Always) Name() string {
	if a.High {
		return "AlwaysHC"
	}
	return "AlwaysLC"
}

// Estimate implements Estimator.
func (a Always) Estimate(pc int64, info bpred.Info) bool { return a.High }

// Resolve implements Estimator.
func (a Always) Resolve(pc int64, info bpred.Info, correct bool) {}
