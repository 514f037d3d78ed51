package bpred

// SAg is a two-level predictor with per-branch (self) history and a
// global pattern table: the first level is a tagless table of branch
// history registers indexed by PC, the second a table of 2-bit counters
// indexed by the history pattern (Yeh & Patt's SAg).
//
// Following the paper, SAg history is updated *non-speculatively*: the
// history register is written when the branch resolves, not when it is
// predicted, because rolling back a table of per-branch histories on a
// squash is impractical in hardware. Consequently Checkpoint/Recover are
// no-ops and back-to-back instances of the same branch may predict from
// slightly stale history — exactly the effect the paper describes.
type SAg struct {
	bht      []uint64   // branch history table, indexed by PC
	pht      []Counter2 // pattern history table, indexed by history
	bhtBits  uint
	histBits uint
}

// NewSAg returns a SAg predictor with 2^bhtBits history registers, each
// histBits long, and a 2^histBits-entry pattern table. The paper uses
// SAgBHTBits and SAgHistBits.
func NewSAg(bhtBits, histBits uint) *SAg {
	if bhtBits == 0 || bhtBits > 24 || histBits == 0 || histBits > 26 {
		panic("bpred: sag configuration out of range")
	}
	return &SAg{
		bht:      make([]uint64, 1<<bhtBits),
		pht:      make([]Counter2, 1<<histBits),
		bhtBits:  bhtBits,
		histBits: histBits,
	}
}

// Name implements Predictor.
func (s *SAg) Name() string { return "sag" }

func (s *SAg) bhtIndex(pc int64) uint64 { return uint64(pc) & mask(s.bhtBits) }

// Predict implements Predictor. Info.Hist carries the branch's own
// history pattern, which both indexes the PHT and feeds the
// pattern-history confidence estimator.
func (s *SAg) Predict(pc int64) (bool, Checkpoint, Info) {
	hist := s.bht[s.bhtIndex(pc)]
	c := s.pht[hist]
	pred := c.Taken()
	return pred, Checkpoint{}, Info{Pred: pred, Hist: hist, C1: c}
}

// Resolve implements Predictor: trains the pattern counter under the
// history used at prediction time, then updates the branch's history
// register with the true outcome (non-speculative update).
func (s *SAg) Resolve(pc int64, info Info, taken bool) {
	s.pht[info.Hist] = s.pht[info.Hist].Update(taken)
	bi := s.bhtIndex(pc)
	s.bht[bi] = (s.bht[bi]<<1 | b2u(taken)) & mask(s.histBits)
}

// Recover implements Predictor. SAg holds no speculative state.
func (s *SAg) Recover(ckpt Checkpoint, pc int64, taken bool) {}

// Snapshot implements Predictor (no speculative state).
func (s *SAg) Snapshot() Checkpoint { return Checkpoint{} }

// RestoreSnapshot implements Predictor.
func (s *SAg) RestoreSnapshot(ckpt Checkpoint) {}
