// Package bpred implements the branch predictors evaluated in the paper:
// bimodal (Smith), gshare and the McFarling combining predictor (both with
// speculatively updated global history), and SAg (per-branch history,
// non-speculatively updated), plus static taken/not-taken references.
//
// # Speculative history and recovery
//
// A pipelined processor predicts a branch long before it resolves, so the
// global history register must be updated with the *predicted* outcome for
// subsequent predictions to see it ("speculative update"). When a
// misprediction is discovered the history must be rewound to its state at
// the mispredicted branch and corrected. Predictors here expose that via
// an opaque Checkpoint captured at Predict time; the pipeline stores the
// checkpoint with each in-flight branch and calls Recover on a squash.
//
// SAg deliberately does not speculate on history (the paper argues
// rolling back a per-branch history table is impractical), so its
// Checkpoint is a no-op and history is written at Resolve time only.
//
// # Interface contract
//
// For each dynamic conditional branch the pipeline calls, in order:
//
//	pred, ckpt, info := p.Predict(pc)     // at fetch/decode
//	...
//	p.Resolve(pc, info, outcome)          // at branch execution
//	p.Recover(ckpt, pc, outcome)          // only if mispredicted
//
// Resolve is also called for squashed (wrong-path) branches when they
// resolve before the enclosing misprediction, matching real hardware where
// wrong-path branches can update tables before the squash.
package bpred

// The paper's predictor geometry: the one machine every experiment, every
// simtrace recording and synth's calibration evaluate. Nothing varies
// it; the constructors take it as arguments only so tests can build
// small tables.
const (
	// GshareBits sizes gshare: a 4096-entry counter table indexed by
	// the PC XOR a 12-bit global history.
	GshareBits = 12
	// McFarlingBits sizes each of McFarling's three tables (gshare,
	// bimodal, chooser) at 4096 entries.
	McFarlingBits = 12
	// SAgBHTBits sizes SAg's first level at 2048 per-branch histories.
	SAgBHTBits = 11
	// SAgHistBits is SAg's history length, so its pattern table holds
	// 8192 counters.
	SAgHistBits = 13
)

// Counter2 is a 2-bit saturating counter with the conventional state
// encoding: 0 = strongly not-taken, 1 = weakly not-taken, 2 = weakly
// taken, 3 = strongly taken.
type Counter2 uint8

// Inc moves the counter toward taken (saturating at 3).
func (c Counter2) Inc() Counter2 {
	if c < 3 {
		return c + 1
	}
	return c
}

// Dec moves the counter toward not-taken (saturating at 0).
func (c Counter2) Dec() Counter2 {
	if c > 0 {
		return c - 1
	}
	return c
}

// Update moves the counter toward the actual outcome.
func (c Counter2) Update(taken bool) Counter2 {
	if taken {
		return c.Inc()
	}
	return c.Dec()
}

// Taken reports the counter's predicted direction.
func (c Counter2) Taken() bool { return c >= 2 }

// Strong reports whether the counter is in a saturated (high hysteresis)
// state. The saturating-counters confidence estimator keys off this.
func (c Counter2) Strong() bool { return c == 0 || c == 3 }

// Checkpoint captures predictor state that must be restored on a
// misprediction squash (global history registers). It is opaque to
// callers.
type Checkpoint struct {
	hist uint64
}

// Info carries per-prediction metadata from Predict to Resolve and to the
// confidence estimators (which component predictors said what, counter
// states, the history used for indexing).
type Info struct {
	Pred bool // overall predicted direction

	// Hist is the global or per-branch history value used to index the
	// pattern table for this prediction (before speculative update).
	Hist uint64

	// Counter states sampled at prediction time. For single-component
	// predictors only C1 is meaningful. For McFarling, C1 is the gshare
	// counter, C2 the bimodal counter and Meta the chooser.
	C1, C2, Meta Counter2

	// P1, P2 are the component predictions (McFarling only).
	P1, P2 bool
}

// Predictor is the interface shared by all branch direction predictors.
type Predictor interface {
	// Name identifies the predictor in reports ("gshare", ...).
	Name() string

	// Predict returns the predicted direction for the conditional
	// branch at pc, a checkpoint for squash recovery, and metadata for
	// confidence estimation. Predictors with speculative history update
	// it here.
	Predict(pc int64) (pred bool, ckpt Checkpoint, info Info)

	// Resolve trains the tables with the actual outcome. info must be
	// the value returned by the matching Predict.
	Resolve(pc int64, info Info, taken bool)

	// Recover rewinds speculative state to ckpt and re-applies the
	// corrected outcome of the mispredicted branch at pc. Called only
	// on mispredictions, after Resolve.
	Recover(ckpt Checkpoint, pc int64, taken bool)

	// Snapshot captures the current speculative state without making a
	// prediction; RestoreSnapshot rewinds to it verbatim. The pipeline
	// uses the pair around *indirect-jump* mispredictions, where the
	// wrong path polluted the history but no conditional-branch outcome
	// needs re-applying.
	Snapshot() Checkpoint
	RestoreSnapshot(ckpt Checkpoint)
}

func mask(bits uint) uint64 { return (1 << bits) - 1 }
