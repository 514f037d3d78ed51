package bpred

// Gshare is the gshare predictor of McFarling's report: a table of 2-bit
// counters indexed by the exclusive-or of the branch PC and a global
// branch history register. History is updated speculatively at Predict
// time and rewound through Recover, matching the paper's "speculative
// gshare" configuration.
type Gshare struct {
	table    []Counter2
	histBits uint
	hist     uint64
}

// NewGshare returns a gshare predictor with 2^indexBits counters and an
// indexBits-long global history register. The paper's configuration is
// indexBits=12 (a 4096-entry table).
func NewGshare(indexBits uint) *Gshare {
	if indexBits == 0 || indexBits > 30 {
		panic("bpred: gshare index bits out of range")
	}
	return &Gshare{
		table:    make([]Counter2, 1<<indexBits),
		histBits: indexBits,
	}
}

// Name implements Predictor.
func (g *Gshare) Name() string { return "gshare" }

func (g *Gshare) index(pc int64, hist uint64) uint64 {
	return (uint64(pc) ^ hist) & mask(g.histBits)
}

// Predict implements Predictor. The global history is speculatively
// shifted with the predicted outcome. The table has 2^histBits entries,
// so len(table)-1 is the index and history mask; deriving it once from
// the slice keeps Predict small enough to inline at the pipeline's
// per-branch call site.
func (g *Gshare) Predict(pc int64) (bool, Checkpoint, Info) {
	m := uint64(len(g.table) - 1)
	h := g.hist
	c := g.table[(uint64(pc)^h)&m]
	pred := c.Taken()
	g.hist = (h<<1 | b2u(pred)) & m
	return pred, Checkpoint{hist: h}, Info{Pred: pred, Hist: h, C1: c}
}

// Resolve implements Predictor: trains the counter that produced the
// prediction (indexed with the history in effect at prediction time).
func (g *Gshare) Resolve(pc int64, info Info, taken bool) {
	idx := g.index(pc, info.Hist)
	g.table[idx] = g.table[idx].Update(taken)
}

// Recover implements Predictor: rewinds the history register to the
// checkpoint and re-applies the branch's true outcome.
func (g *Gshare) Recover(ckpt Checkpoint, pc int64, taken bool) {
	g.hist = (ckpt.hist<<1 | b2u(taken)) & mask(g.histBits)
}

// History returns the current (speculative) global history value; the
// pattern-history confidence estimator reads it.
func (g *Gshare) History() (value uint64, bits uint) { return g.hist, g.histBits }

// Bimodal is the classic Smith predictor: a table of 2-bit counters
// indexed by the branch PC alone. It has no history, so Checkpoint and
// Recover are no-ops.
type Bimodal struct {
	table []Counter2
	bits  uint
}

// NewBimodal returns a bimodal predictor with 2^indexBits counters.
func NewBimodal(indexBits uint) *Bimodal {
	if indexBits == 0 || indexBits > 30 {
		panic("bpred: bimodal index bits out of range")
	}
	return &Bimodal{table: make([]Counter2, 1<<indexBits), bits: indexBits}
}

// Name implements Predictor.
func (b *Bimodal) Name() string { return "bimodal" }

func (b *Bimodal) index(pc int64) uint64 { return uint64(pc) & mask(b.bits) }

// Predict implements Predictor.
func (b *Bimodal) Predict(pc int64) (bool, Checkpoint, Info) {
	c := b.table[b.index(pc)]
	return c.Taken(), Checkpoint{}, Info{Pred: c.Taken(), C1: c}
}

// Resolve implements Predictor.
func (b *Bimodal) Resolve(pc int64, info Info, taken bool) {
	idx := b.index(pc)
	b.table[idx] = b.table[idx].Update(taken)
}

// Recover implements Predictor (no speculative state).
func (b *Bimodal) Recover(ckpt Checkpoint, pc int64, taken bool) {}

// Static predicts a fixed direction for every branch; useful as a
// baseline and in tests.
type Static struct {
	Taken bool
}

// Name implements Predictor.
func (s Static) Name() string {
	if s.Taken {
		return "always-taken"
	}
	return "always-not-taken"
}

// Predict implements Predictor.
func (s Static) Predict(pc int64) (bool, Checkpoint, Info) {
	return s.Taken, Checkpoint{}, Info{Pred: s.Taken}
}

// Resolve implements Predictor.
func (s Static) Resolve(pc int64, info Info, taken bool) {}

// Recover implements Predictor.
func (s Static) Recover(ckpt Checkpoint, pc int64, taken bool) {}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Snapshot implements Predictor.
func (g *Gshare) Snapshot() Checkpoint { return Checkpoint{hist: g.hist} }

// RestoreSnapshot implements Predictor.
func (g *Gshare) RestoreSnapshot(ckpt Checkpoint) { g.hist = ckpt.hist }

// Snapshot implements Predictor (no speculative state).
func (b *Bimodal) Snapshot() Checkpoint { return Checkpoint{} }

// RestoreSnapshot implements Predictor.
func (b *Bimodal) RestoreSnapshot(ckpt Checkpoint) {}

// Snapshot implements Predictor (no speculative state).
func (s Static) Snapshot() Checkpoint { return Checkpoint{} }

// RestoreSnapshot implements Predictor.
func (s Static) RestoreSnapshot(ckpt Checkpoint) {}

// GshareNonSpec is gshare with *non-speculative* history update: the
// global history register is written at Resolve time with the actual
// outcome, never at Predict time, so predictions between a branch's
// fetch and its resolution see stale history. The paper (§3.1) notes
// this "slightly increases the branch misprediction rate"; the ablation
// experiment quantifies it on this simulator.
type GshareNonSpec struct {
	table    []Counter2
	histBits uint
	hist     uint64
}

// NewGshareNonSpec returns a non-speculatively-updated gshare with
// 2^indexBits counters.
func NewGshareNonSpec(indexBits uint) *GshareNonSpec {
	if indexBits == 0 || indexBits > 30 {
		panic("bpred: gshare index bits out of range")
	}
	return &GshareNonSpec{
		table:    make([]Counter2, 1<<indexBits),
		histBits: indexBits,
	}
}

// Name implements Predictor.
func (g *GshareNonSpec) Name() string { return "gshare-nonspec" }

// Predict implements Predictor. History is not touched.
func (g *GshareNonSpec) Predict(pc int64) (bool, Checkpoint, Info) {
	idx := (uint64(pc) ^ g.hist) & mask(g.histBits)
	c := g.table[idx]
	return c.Taken(), Checkpoint{}, Info{Pred: c.Taken(), Hist: g.hist, C1: c}
}

// Resolve implements Predictor: trains the counter and appends the true
// outcome to the history.
func (g *GshareNonSpec) Resolve(pc int64, info Info, taken bool) {
	idx := (uint64(pc) ^ info.Hist) & mask(g.histBits)
	g.table[idx] = g.table[idx].Update(taken)
	g.hist = (g.hist<<1 | b2u(taken)) & mask(g.histBits)
}

// Recover implements Predictor (nothing speculative to rewind).
func (g *GshareNonSpec) Recover(ckpt Checkpoint, pc int64, taken bool) {}

// Snapshot implements Predictor.
func (g *GshareNonSpec) Snapshot() Checkpoint { return Checkpoint{} }

// RestoreSnapshot implements Predictor.
func (g *GshareNonSpec) RestoreSnapshot(ckpt Checkpoint) {}
