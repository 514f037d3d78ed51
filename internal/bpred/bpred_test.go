package bpred

import (
	"testing"
	"testing/quick"

	"specctrl/internal/rng"
)

func TestCounter2Saturation(t *testing.T) {
	c := Counter2(0)
	if c.Dec() != 0 {
		t.Error("Dec below 0")
	}
	c = Counter2(3)
	if c.Inc() != 3 {
		t.Error("Inc above 3")
	}
	for v, want := range map[Counter2]bool{0: false, 1: false, 2: true, 3: true} {
		if v.Taken() != want {
			t.Errorf("Counter2(%d).Taken() = %v", v, v.Taken())
		}
	}
	for v, want := range map[Counter2]bool{0: true, 1: false, 2: false, 3: true} {
		if v.Strong() != want {
			t.Errorf("Counter2(%d).Strong() = %v", v, v.Strong())
		}
	}
}

func TestCounter2UpdateWalk(t *testing.T) {
	c := Counter2(0)
	c = c.Update(true).Update(true) // 2
	if !c.Taken() || c.Strong() {
		t.Errorf("after TT from 0: %d", c)
	}
	c = c.Update(true) // 3
	if !c.Strong() {
		t.Errorf("after TTT from 0: %d", c)
	}
	c = c.Update(false) // 2
	if !c.Taken() {
		t.Error("one not-taken from strong flips direction")
	}
}

// trainAlternating feeds a strict repeating pattern to the predictor as if
// from a single in-order stream (resolve immediately, recover on miss) and
// returns the accuracy over the last half.
func trainPattern(p Predictor, pcs []int64, pattern []bool, n int) float64 {
	correct, total := 0, 0
	for i := 0; i < n; i++ {
		pc := pcs[i%len(pcs)]
		taken := pattern[i%len(pattern)]
		pred, ckpt, info := p.Predict(pc)
		p.Resolve(pc, info, taken)
		if pred != taken {
			p.Recover(ckpt, pc, taken)
		}
		if i >= n/2 {
			total++
			if pred == taken {
				correct++
			}
		}
	}
	return float64(correct) / float64(total)
}

func TestBimodalLearnsBias(t *testing.T) {
	b := NewBimodal(10)
	acc := trainPattern(b, []int64{100}, []bool{true}, 200)
	if acc != 1.0 {
		t.Errorf("bimodal on always-taken: acc = %v, want 1", acc)
	}
	b = NewBimodal(10)
	acc = trainPattern(b, []int64{100}, []bool{false}, 200)
	if acc != 1.0 {
		t.Errorf("bimodal on always-not-taken: acc = %v, want 1", acc)
	}
}

func TestBimodalAlternatingIsPoor(t *testing.T) {
	b := NewBimodal(10)
	acc := trainPattern(b, []int64{100}, []bool{true, false}, 400)
	if acc > 0.6 {
		t.Errorf("bimodal on alternating: acc = %v, expected poor", acc)
	}
}

func TestGshareLearnsAlternating(t *testing.T) {
	g := NewGshare(12)
	acc := trainPattern(g, []int64{100}, []bool{true, false}, 2000)
	if acc < 0.95 {
		t.Errorf("gshare on alternating: acc = %v, want ~1", acc)
	}
}

func TestGshareLearnsLoopPattern(t *testing.T) {
	// Pattern TTTTN of a 5-iteration loop is capturable with 12 bits of
	// history.
	g := NewGshare(12)
	acc := trainPattern(g, []int64{64}, []bool{true, true, true, true, false}, 5000)
	if acc < 0.95 {
		t.Errorf("gshare on loop pattern: acc = %v, want ~1", acc)
	}
}

func TestSAgLearnsLoopPattern(t *testing.T) {
	s := NewSAg(11, 13)
	acc := trainPattern(s, []int64{64}, []bool{true, true, true, false}, 5000)
	if acc < 0.95 {
		t.Errorf("sag on loop pattern: acc = %v, want ~1", acc)
	}
}

func TestMcFarlingBeatsComponentsOnMixedWorkload(t *testing.T) {
	// Branch A is globally correlated (alternating), branch B is heavily
	// biased but randomly placed so gshare aliases hurt it; the combiner
	// should match or beat each single component.
	run := func(p Predictor) float64 {
		g := rng.New(1)
		correct, total := 0, 0
		const n = 20000
		for i := 0; i < n; i++ {
			var pc int64
			var taken bool
			switch i % 2 {
			case 0:
				pc = 0x10
				taken = (i/2)%2 == 0
			default:
				pc = int64(0x100 + g.Intn(64))
				taken = true
			}
			pred, ckpt, info := p.Predict(pc)
			p.Resolve(pc, info, taken)
			if pred != taken {
				p.Recover(ckpt, pc, taken)
			}
			if i > n/2 && pred == taken {
				correct++
			}
			if i > n/2 {
				total++
			}
		}
		return float64(correct) / float64(total)
	}
	mcf := run(NewMcFarling(10))
	gsh := run(NewGshare(10))
	bim := run(NewBimodal(10))
	if mcf+0.02 < gsh || mcf+0.02 < bim {
		t.Errorf("mcfarling %.3f should be >= gshare %.3f and bimodal %.3f (within 2%%)", mcf, gsh, bim)
	}
}

func TestGshareRecoverRestoresHistory(t *testing.T) {
	g := NewGshare(8)
	// Drive some history in.
	for i := 0; i < 10; i++ {
		_, _, info := g.Predict(int64(i))
		g.Resolve(int64(i), info, i%2 == 0)
	}
	histBefore, _ := g.History()
	pred, ckpt, info := g.Predict(0x55)
	g.Resolve(0x55, info, !pred) // mispredicted
	g.Recover(ckpt, 0x55, !pred)
	histAfter, _ := g.History()
	want := (histBefore<<1 | b2u(!pred)) & mask(8)
	if histAfter != want {
		t.Errorf("history after recover = %b, want %b", histAfter, want)
	}
}

// TestSpeculativeHistoryEquivalence property: a gshare driven down a
// wrong path and recovered must end in exactly the state of a gshare that
// never saw the wrong path (history restored AND no counter pollution
// from unresolved branches).
func TestSpeculativeHistoryEquivalence(t *testing.T) {
	f := func(seed uint64, wrongLen uint8) bool {
		g1 := NewGshare(10)
		g2 := NewGshare(10)
		r := rng.New(seed)
		// Identical committed prologue.
		for i := 0; i < 50; i++ {
			pc := int64(r.Intn(256))
			taken := r.Bool(0.6)
			for _, g := range []*Gshare{g1, g2} {
				_, ckpt, info := g.Predict(pc)
				g.Resolve(pc, info, taken)
				if info.Pred != taken {
					g.Recover(ckpt, pc, taken)
				}
			}
		}
		// g1 now mispredicts a branch and speculates down a wrong path:
		// wrong-path branches are predicted but never resolved.
		pc := int64(r.Intn(256))
		pred1, ckpt1, info1 := g1.Predict(pc)
		taken := !pred1 // force a misprediction so a wrong path exists
		for i := 0; i < int(wrongLen%16); i++ {
			g1.Predict(int64(r.Intn(256))) // wrong path: predicted, never resolved
		}
		g1.Resolve(pc, info1, taken)
		g1.Recover(ckpt1, pc, taken)

		// g2 executes the same branch with no wrong-path excursion.
		pred2, ckpt2, info2 := g2.Predict(pc)
		g2.Resolve(pc, info2, taken)
		g2.Recover(ckpt2, pc, taken)

		if pred1 != pred2 {
			return false
		}
		h1, _ := g1.History()
		h2, _ := g2.History()
		return h1 == h2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMcFarlingMetaSelectsBetterComponent(t *testing.T) {
	m := NewMcFarling(10)
	// A single PC with an alternating pattern: gshare learns it, bimodal
	// cannot. After training, the meta counter must favor gshare.
	trainPattern(m, []int64{0x40}, []bool{true, false}, 2000)
	_, _, info := m.Predict(0x40)
	if !info.Meta.Taken() {
		t.Errorf("meta counter = %d, want taken-half (gshare)", info.Meta)
	}
}

func TestSAgSeparateHistories(t *testing.T) {
	s := NewSAg(8, 8)
	// Two branches with opposite biases must not interfere (different
	// BHT entries and mostly different patterns).
	for i := 0; i < 500; i++ {
		for pc, taken := range map[int64]bool{10: true, 20: false} {
			_, _, info := s.Predict(pc)
			s.Resolve(pc, info, taken)
		}
	}
	p1, _, i1 := s.Predict(10)
	p2, _, i2 := s.Predict(20)
	if !p1 || p2 {
		t.Errorf("sag predictions (%v,%v), want (true,false)", p1, p2)
	}
	if i1.Hist == 0 || i2.Hist != 0 {
		t.Error("per-branch histories not tracked independently")
	}
}

func TestSAgAliasing(t *testing.T) {
	// SAg is tagless: PCs that collide in the BHT share a history.
	s := NewSAg(4, 8)
	pcA, pcB := int64(3), int64(3+16) // same low 4 bits
	for i := 0; i < 100; i++ {
		_, _, info := s.Predict(pcA)
		s.Resolve(pcA, info, true)
	}
	_, _, a := s.Predict(pcA)
	_, _, b := s.Predict(pcB)
	if a.Hist != b.Hist {
		t.Error("aliased PCs should share a BHT entry")
	}
}

func TestStaticPredictor(t *testing.T) {
	at := Static{Taken: true}
	ant := Static{Taken: false}
	p1, _, _ := at.Predict(1)
	p2, _, _ := ant.Predict(1)
	if !p1 || p2 {
		t.Error("static predictors returned wrong directions")
	}
	if at.Name() == ant.Name() {
		t.Error("static predictor names collide")
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	for _, f := range []func(){
		func() { NewGshare(0) },
		func() { NewGshare(31) },
		func() { NewBimodal(0) },
		func() { NewMcFarling(0) },
		func() { NewSAg(0, 8) },
		func() { NewSAg(8, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("constructor accepted invalid configuration")
				}
			}()
			f()
		}()
	}
}

func TestInterfaceCompliance(t *testing.T) {
	var _ Predictor = NewGshare(4)
	var _ Predictor = NewBimodal(4)
	var _ Predictor = NewMcFarling(4)
	var _ Predictor = NewSAg(4, 4)
	var _ Predictor = Static{}
}

func BenchmarkGsharePredictResolve(b *testing.B) {
	g := NewGshare(12)
	r := rng.New(9)
	pcs := make([]int64, 1024)
	for i := range pcs {
		pcs[i] = int64(r.Intn(1 << 16))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := pcs[i&1023]
		pred, ckpt, info := g.Predict(pc)
		taken := i&7 != 0
		g.Resolve(pc, info, taken)
		if pred != taken {
			g.Recover(ckpt, pc, taken)
		}
	}
}

func BenchmarkMcFarlingPredictResolve(b *testing.B) {
	m := NewMcFarling(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := int64(i & 0xfff)
		taken := i&3 != 0
		pred, ckpt, info := m.Predict(pc)
		m.Resolve(pc, info, taken)
		if pred != taken {
			m.Recover(ckpt, pc, taken)
		}
	}
}

func TestGshareNonSpecLearnsBias(t *testing.T) {
	g := NewGshareNonSpec(10)
	acc := trainPattern(g, []int64{50}, []bool{true}, 400)
	if acc != 1.0 {
		t.Errorf("non-spec gshare on always-taken: acc = %v", acc)
	}
}

func TestGshareNonSpecHistoryOnlyAtResolve(t *testing.T) {
	g := NewGshareNonSpec(8)
	_, _, info1 := g.Predict(1)
	_, _, info2 := g.Predict(2)
	if info1.Hist != info2.Hist {
		t.Error("history moved between predictions without a resolve")
	}
	g.Resolve(1, info1, true)
	_, _, info3 := g.Predict(3)
	if info3.Hist != (info1.Hist<<1|1)&0xff {
		t.Errorf("history after resolve = %b", info3.Hist)
	}
}

func TestGshareNonSpecInterface(t *testing.T) {
	var _ Predictor = NewGshareNonSpec(4)
}
