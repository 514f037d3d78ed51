package conf

import (
	"fmt"
	"math/bits"

	"specctrl/internal/bpred"
)

// OnesCount is Jacobsen, Rotenberg and Smith's other estimator family:
// a table of correct/incorrect registers (CIRs). Each entry is an n-bit
// shift register recording whether the last n predictions mapping there
// were correct (1) or incorrect (0); a prediction is high confidence
// when at least Threshold of the last n were correct. Unlike the
// resetting MDC, a single misprediction only removes one "1" — the
// estimator forgives isolated mispredictions but reacts to clusters.
//
// Indexing matches the JRS estimator (PC xor history, optionally with
// the prediction folded in), which the paper identifies as the property
// that makes table-based estimators work (§4.1).
type OnesCount struct {
	cfg   OnesCountConfig
	table []uint32
	mask  uint32
}

// OnesCountConfig parameterizes the CIR estimator.
type OnesCountConfig struct {
	// Entries is the number of CIRs (power of two).
	Entries int
	// Bits is the shift-register length (1..32).
	Bits uint
	// Threshold marks high confidence when popcount >= Threshold.
	Threshold int
	// Enhanced folds the prediction into the index, as for JRS.
	Enhanced bool
}

// Validate checks the configuration.
func (c OnesCountConfig) Validate() error {
	switch {
	case c.Entries <= 0 || c.Entries&(c.Entries-1) != 0:
		return fmt.Errorf("conf: CIR entries %d not a positive power of two", c.Entries)
	case c.Bits == 0 || c.Bits > 32:
		return fmt.Errorf("conf: CIR register length %d out of range", c.Bits)
	case c.Threshold < 0 || c.Threshold > int(c.Bits):
		return fmt.Errorf("conf: CIR threshold %d out of range for %d bits", c.Threshold, c.Bits)
	}
	return nil
}

// NewOnesCount returns a CIR estimator; it panics on invalid
// configuration. Registers start all-zero (everything low confidence
// until a history accumulates), matching the JRS cold-start behaviour.
func NewOnesCount(cfg OnesCountConfig) *OnesCount {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &OnesCount{
		cfg:   cfg,
		table: make([]uint32, cfg.Entries),
		mask:  uint32(1)<<cfg.Bits - 1,
	}
}

// Name implements Estimator.
func (o *OnesCount) Name() string {
	return fmt.Sprintf("CIR(%d/%d)", o.cfg.Threshold, o.cfg.Bits)
}

func (o *OnesCount) index(pc int64, info bpred.Info) int {
	var idx uint64
	if o.cfg.Enhanced {
		idx = uint64(pc) ^ (info.Hist<<1 | b2u(info.Pred))
	} else {
		idx = uint64(pc) ^ info.Hist
	}
	return int(idx & uint64(o.cfg.Entries-1))
}

// Estimate implements Estimator.
func (o *OnesCount) Estimate(pc int64, info bpred.Info) bool {
	return o.Ones(pc, info) >= o.cfg.Threshold
}

// Ones returns the popcount of the CIR selected for a (pc, info) pair —
// the level Estimate compares against the threshold.
func (o *OnesCount) Ones(pc int64, info bpred.Info) int {
	return bits.OnesCount32(o.table[o.index(pc, info)])
}

// Config returns the estimator's configuration. As for JRS, table state
// depends only on the non-Threshold fields, so a replay evaluator can
// share one table across a threshold sweep.
func (o *OnesCount) Config() OnesCountConfig { return o.cfg }

// Resolve implements Estimator: shift in the outcome bit.
func (o *OnesCount) Resolve(pc int64, info bpred.Info, correct bool) {
	i := o.index(pc, info)
	v := o.table[i] << 1
	if correct {
		v |= 1
	}
	o.table[i] = v & o.mask
}

// GlobalMDCIndexed is the variant §4.1 attributes to Jacobsen et al: a
// single *global* miss distance counter (branches since the last
// detected misprediction) whose clamped value indexes a table of CIR
// registers. The paper argues this "probably did not work well" because
// the indexing structure no longer matches the branch predictor's — an
// hypothesis this implementation lets the experiments test directly.
type GlobalMDCIndexed struct {
	cfg   OnesCountConfig
	table []uint32
	mask  uint32
	mdc   int
}

// NewGlobalMDCIndexed returns the global-MDC-indexed CIR estimator.
func NewGlobalMDCIndexed(cfg OnesCountConfig) *GlobalMDCIndexed {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &GlobalMDCIndexed{
		cfg:   cfg,
		table: make([]uint32, cfg.Entries),
		mask:  uint32(1)<<cfg.Bits - 1,
	}
}

// Name implements Estimator.
func (g *GlobalMDCIndexed) Name() string {
	return fmt.Sprintf("gMDC-CIR(%d/%d)", g.cfg.Threshold, g.cfg.Bits)
}

func (g *GlobalMDCIndexed) index() int {
	i := g.mdc
	if i >= g.cfg.Entries {
		i = g.cfg.Entries - 1
	}
	return i
}

// Estimate implements Estimator: classify by the CIR selected by the
// current global distance. The distance counts *resolved* branches since
// the last detected misprediction, so the entry a branch reads is the
// entry its own resolution trains — the pairing the hardware achieves by
// latching the MDC value with the branch.
func (g *GlobalMDCIndexed) Estimate(pc int64, info bpred.Info) bool {
	return g.Ones() >= g.cfg.Threshold
}

// Ones returns the popcount of the CIR selected by the current global
// distance — the level Estimate compares against the threshold.
func (g *GlobalMDCIndexed) Ones() int {
	return bits.OnesCount32(g.table[g.index()])
}

// Config returns the estimator's configuration; table state and the
// global distance depend only on the non-Threshold fields.
func (g *GlobalMDCIndexed) Config() OnesCountConfig { return g.cfg }

// Resolve implements Estimator: train the CIR at the current distance,
// then advance it — or reset it on a detected misprediction.
func (g *GlobalMDCIndexed) Resolve(pc int64, info bpred.Info, correct bool) {
	i := g.index()
	v := g.table[i] << 1
	if correct {
		v |= 1
	}
	g.table[i] = v & g.mask
	if correct {
		g.mdc++
	} else {
		g.mdc = 0
	}
}
