package bpred

// McFarling is the combining predictor from McFarling's WRL report: a
// gshare component and a bimodal component, with a third table of 2-bit
// "meta" counters (indexed by PC) choosing between them. The global
// history of the gshare component is updated speculatively and rewound on
// mispredictions, as in the paper's "speculative McFarling" configuration.
//
// Training follows the standard rule: both components train on every
// resolved branch; the meta counter moves toward the component that was
// correct only when the two components disagreed.
type McFarling struct {
	gshare  []Counter2
	bimodal []Counter2
	meta    []Counter2
	bits    uint
	hist    uint64
}

// NewMcFarling returns a combining predictor whose three tables each have
// 2^indexBits entries. The paper's configuration is McFarlingBits.
func NewMcFarling(indexBits uint) *McFarling {
	if indexBits == 0 || indexBits > 30 {
		panic("bpred: mcfarling index bits out of range")
	}
	n := 1 << indexBits
	return &McFarling{
		gshare:  make([]Counter2, n),
		bimodal: make([]Counter2, n),
		meta:    make([]Counter2, n),
		bits:    indexBits,
	}
}

// Name implements Predictor.
func (m *McFarling) Name() string { return "mcfarling" }

func (m *McFarling) gIndex(pc int64, hist uint64) uint64 {
	return (uint64(pc) ^ hist) & mask(m.bits)
}

func (m *McFarling) pIndex(pc int64) uint64 { return uint64(pc) & mask(m.bits) }

// Predict implements Predictor. Info carries both component counters
// (C1 = gshare, C2 = bimodal) and the meta counter for the
// saturating-counters confidence estimator variants.
func (m *McFarling) Predict(pc int64) (bool, Checkpoint, Info) {
	ckpt := Checkpoint{hist: m.hist}
	c1 := m.gshare[m.gIndex(pc, m.hist)]
	c2 := m.bimodal[m.pIndex(pc)]
	meta := m.meta[m.pIndex(pc)]
	p1, p2 := c1.Taken(), c2.Taken()
	// Meta counter: taken-half selects the gshare component.
	pred := p2
	if meta.Taken() {
		pred = p1
	}
	info := Info{Pred: pred, Hist: m.hist, C1: c1, C2: c2, Meta: meta, P1: p1, P2: p2}
	m.hist = (m.hist<<1 | b2u(pred)) & mask(m.bits)
	return pred, ckpt, info
}

// Resolve implements Predictor.
func (m *McFarling) Resolve(pc int64, info Info, taken bool) {
	gi := m.gIndex(pc, info.Hist)
	pi := m.pIndex(pc)
	m.gshare[gi] = m.gshare[gi].Update(taken)
	m.bimodal[pi] = m.bimodal[pi].Update(taken)
	if info.P1 != info.P2 {
		// Reinforce the component that was right: gshare lives in the
		// taken half of the meta counter.
		m.meta[pi] = m.meta[pi].Update(info.P1 == taken)
	}
}

// Recover implements Predictor.
func (m *McFarling) Recover(ckpt Checkpoint, pc int64, taken bool) {
	m.hist = (ckpt.hist<<1 | b2u(taken)) & mask(m.bits)
}

// History returns the current (speculative) global history value.
func (m *McFarling) History() (value uint64, bits uint) { return m.hist, m.bits }

// Snapshot implements Predictor.
func (m *McFarling) Snapshot() Checkpoint { return Checkpoint{hist: m.hist} }

// RestoreSnapshot implements Predictor.
func (m *McFarling) RestoreSnapshot(ckpt Checkpoint) { m.hist = ckpt.hist }
