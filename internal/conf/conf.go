// Package conf implements the confidence estimators studied in the paper
// (§3–§4): hardware mechanisms that label each branch prediction "high
// confidence" (likely correct) or "low confidence" (likely mispredicted),
// so an architecture can apply speculation control — gate the pipeline,
// switch threads, or fork eager execution — on low-confidence branches.
//
// Estimators:
//
//   - JRS: the Jacobsen/Rotenberg/Smith one-level resetting miss distance
//     counter (MDC) table, including the paper's *enhanced* variant that
//     folds the branch prediction into the table index (§3.2.1).
//   - SatCounters: reuses the saturating counters of the underlying
//     predictor (Smith); for the McFarling predictor, the "Both Strong"
//     and "Either Strong" variants of §3.3.1.
//   - PatternHistory: Lick et al's fixed set of confident history
//     patterns (§3, "Pattern History Estimator").
//   - Static: profile-derived per-branch-site confidence with an accuracy
//     threshold (§3, "Static Estimator"); see internal/profile for the
//     training pass.
//   - Distance: the paper's new misprediction-distance estimator — a
//     single global counter of branches fetched since the last *detected*
//     misprediction (§4.1).
//   - OnesCount / GlobalMDCIndexed: Jacobsen et al's correct/incorrect-
//     register designs, including the global-MDC-indexed variant §4.1
//     argues against.
//   - JRSMcFarling: the §5 future-work sketch — two MDC tables mirroring
//     the McFarling predictor's two indexing structures.
//   - And: the combinator for composing two estimators (high
//     confidence only when both agree).
//   - PatternProfiler: an analysis probe measuring per-pattern accuracy
//     (the §3.2 dominance measurement), not a hardware scheme.
//
// # Interface contract
//
// The pipeline calls Estimate exactly once per fetched conditional branch
// (wrong-path branches included — a real estimator cannot know it is on
// the wrong path), in fetch order, and Resolve once per branch that
// reaches resolution, in program order, with the outcome. Estimators that
// keep no mutable state simply ignore Resolve.
package conf

import (
	"fmt"

	"specctrl/internal/bpred"
)

// Estimator assesses the quality of individual branch predictions.
type Estimator interface {
	// Name identifies the estimator in reports, e.g. "JRS(t=15)".
	Name() string

	// Estimate returns true for high confidence in the prediction
	// described by info for the branch at pc. Called once per fetched
	// conditional branch, in fetch order.
	Estimate(pc int64, info bpred.Info) bool

	// Resolve informs the estimator of the branch's actual outcome.
	// correct reports whether the prediction in info was right. Called
	// once per resolved branch, in program order.
	Resolve(pc int64, info bpred.Info, correct bool)
}

// JRSConfig parameterizes the JRS estimator.
type JRSConfig struct {
	// Entries is the number of miss distance counters (power of two).
	// The paper's default is 4096.
	Entries int
	// Bits is the counter width; the paper uses 4-bit counters, which
	// saturate at 15.
	Bits uint
	// Threshold marks high confidence when the counter value is >=
	// Threshold. A threshold of 1<<Bits is unreachable and labels every
	// branch low confidence.
	Threshold int
	// Enhanced folds the branch prediction into the MDC index (§3.2.1),
	// distinguishing the taken and not-taken variants of a history.
	Enhanced bool
}

// Validate checks the configuration.
func (c JRSConfig) Validate() error {
	switch {
	case c.Entries <= 0 || c.Entries&(c.Entries-1) != 0:
		return fmt.Errorf("conf: JRS entries %d not a positive power of two", c.Entries)
	case c.Bits == 0 || c.Bits > 16:
		return fmt.Errorf("conf: JRS counter width %d out of range", c.Bits)
	case c.Threshold < 0 || c.Threshold > 1<<c.Bits:
		return fmt.Errorf("conf: JRS threshold %d out of range for %d-bit counters", c.Threshold, c.Bits)
	}
	return nil
}

// DefaultJRS is the paper's headline configuration: 4096 4-bit counters,
// threshold 15, enhanced indexing.
var DefaultJRS = JRSConfig{Entries: 4096, Bits: 4, Threshold: 15, Enhanced: true}

// JRS is the resetting-counter estimator. Each branch prediction reads a
// miss distance counter selected by XORing the PC with the branch history
// used for the prediction; counts at or above the threshold are high
// confidence. On a correct prediction the counter increments
// (saturating); on a misprediction it resets to zero, so a counter only
// reaches the threshold after a run of correct predictions — which works
// because mispredictions cluster (§4.1).
type JRS struct {
	cfg   JRSConfig
	table []uint16
	max   uint16
}

// NewJRS returns a JRS estimator; it panics on invalid configuration.
func NewJRS(cfg JRSConfig) *JRS {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &JRS{
		cfg:   cfg,
		table: make([]uint16, cfg.Entries),
		max:   uint16(1<<cfg.Bits - 1),
	}
}

// Name implements Estimator.
func (j *JRS) Name() string {
	v := "JRS"
	if j.cfg.Enhanced {
		v = "JRS+"
	}
	return fmt.Sprintf("%s(t=%d)", v, j.cfg.Threshold)
}

func (j *JRS) index(pc int64, info bpred.Info) int {
	// Enhanced indexing (§3.2.1): treat the prediction as a speculative
	// extension of the branch history — the predicted direction is the
	// next history bit before it is known. Indexing with the extended
	// history both separates the taken/not-taken variants of a context
	// and re-partitions the aliasing pattern away from the predictor's,
	// which is where the improvement comes from.
	var idx uint64
	if j.cfg.Enhanced {
		idx = uint64(pc) ^ (info.Hist<<1 | b2u(info.Pred))
	} else {
		idx = uint64(pc) ^ info.Hist
	}
	return int(idx & uint64(j.cfg.Entries-1))
}

// Estimate implements Estimator.
func (j *JRS) Estimate(pc int64, info bpred.Info) bool {
	return int(j.table[j.index(pc, info)]) >= j.cfg.Threshold
}

// Resolve implements Estimator: increment on correct, reset on incorrect.
func (j *JRS) Resolve(pc int64, info bpred.Info, correct bool) {
	i := j.index(pc, info)
	if !correct {
		j.table[i] = 0
		return
	}
	if j.table[i] < j.max {
		j.table[i]++
	}
}

// Counter exposes the current MDC value for a (pc, info) pair; used by
// tests and diagnostics.
func (j *JRS) Counter(pc int64, info bpred.Info) int {
	return int(j.table[j.index(pc, info)])
}

// Config returns the estimator's configuration. Table state depends
// only on the non-Threshold fields (the threshold is compared at
// Estimate time, never stored), which is what lets a replay evaluator
// share one table across a threshold sweep.
func (j *JRS) Config() JRSConfig { return j.cfg }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
