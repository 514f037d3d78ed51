package conf

import (
	"testing"

	"specctrl/internal/bpred"
)

func TestOnesCountThreshold(t *testing.T) {
	o := NewOnesCount(OnesCountConfig{Entries: 64, Bits: 4, Threshold: 3})
	in := info(true, 0)
	pc := int64(7)
	if o.Estimate(pc, in) {
		t.Error("cold CIR should be low confidence")
	}
	for i := 0; i < 3; i++ {
		o.Resolve(pc, in, true)
	}
	if !o.Estimate(pc, in) {
		t.Error("three correct outcomes should reach threshold 3")
	}
}

func TestOnesCountForgivesIsolatedMiss(t *testing.T) {
	// Unlike the resetting JRS, one misprediction among many correct
	// outcomes keeps the entry high confidence.
	o := NewOnesCount(OnesCountConfig{Entries: 64, Bits: 8, Threshold: 6})
	j := NewJRS(JRSConfig{Entries: 64, Bits: 4, Threshold: 6})
	in := info(true, 0)
	pc := int64(3)
	for i := 0; i < 8; i++ {
		o.Resolve(pc, in, true)
		j.Resolve(pc, in, true)
	}
	o.Resolve(pc, in, false)
	j.Resolve(pc, in, false)
	if !o.Estimate(pc, in) {
		t.Error("CIR should forgive an isolated misprediction")
	}
	if j.Estimate(pc, in) {
		t.Error("JRS should reset on the same misprediction")
	}
}

func TestOnesCountShiftWindow(t *testing.T) {
	// Only the last Bits outcomes matter.
	o := NewOnesCount(OnesCountConfig{Entries: 16, Bits: 4, Threshold: 4})
	in := info(false, 0)
	pc := int64(1)
	for i := 0; i < 10; i++ {
		o.Resolve(pc, in, true)
	}
	if !o.Estimate(pc, in) {
		t.Fatal("saturated window should be high confidence")
	}
	for i := 0; i < 4; i++ {
		o.Resolve(pc, in, false)
	}
	if o.Estimate(pc, in) {
		t.Error("four incorrect outcomes should flush a 4-bit window")
	}
}

func TestOnesCountEnhancedSeparates(t *testing.T) {
	o := NewOnesCount(OnesCountConfig{Entries: 64, Bits: 4, Threshold: 1, Enhanced: true})
	pc := int64(5)
	taken, notTaken := info(true, 0x12), info(false, 0x12)
	o.Resolve(pc, taken, true)
	if !o.Estimate(pc, taken) {
		t.Error("trained direction should be high confidence")
	}
	if o.Estimate(pc, notTaken) {
		t.Error("other direction should be untouched")
	}
}

func TestOnesCountConfigValidate(t *testing.T) {
	bad := []OnesCountConfig{
		{Entries: 0, Bits: 4, Threshold: 1},
		{Entries: 3, Bits: 4, Threshold: 1},
		{Entries: 16, Bits: 0, Threshold: 0},
		{Entries: 16, Bits: 33, Threshold: 1},
		{Entries: 16, Bits: 4, Threshold: 5},
		{Entries: 16, Bits: 4, Threshold: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestGlobalMDCIndexedDistanceReset(t *testing.T) {
	g := NewGlobalMDCIndexed(OnesCountConfig{Entries: 16, Bits: 4, Threshold: 2})
	in := info(true, 0)
	// The MDC counts resolved branches since the last misprediction.
	for i := 0; i < 10; i++ {
		g.Resolve(0, in, true)
	}
	if g.mdc != 10 {
		t.Fatalf("mdc = %d, want 10", g.mdc)
	}
	g.Resolve(0, in, false)
	if g.mdc != 0 {
		t.Error("misprediction did not reset the global MDC")
	}
}

func TestGlobalMDCIndexedLearnsPerDistance(t *testing.T) {
	// Train: distance-0 branches always right, distance-1 branches
	// always wrong. The estimator must separate the two distances.
	g := NewGlobalMDCIndexed(OnesCountConfig{Entries: 16, Bits: 4, Threshold: 3})
	in := info(true, 0)
	for i := 0; i < 40; i++ {
		g.Resolve(0, in, true)  // distance 0: correct, mdc -> 1
		g.Resolve(0, in, false) // distance 1: incorrect, reset
	}
	// Distance 0 (right after a reset): CIR full of 1s -> HC.
	if !g.Estimate(0, in) {
		t.Error("distance-0 branches should be high confidence")
	}
	g.Resolve(0, in, true)
	// Distance 1: CIR full of 0s -> LC.
	if g.Estimate(0, in) {
		t.Error("distance-1 branches should be low confidence")
	}
}

func TestCIRInterfaces(t *testing.T) {
	var _ Estimator = NewOnesCount(OnesCountConfig{Entries: 16, Bits: 4, Threshold: 2})
	var _ Estimator = NewGlobalMDCIndexed(OnesCountConfig{Entries: 16, Bits: 4, Threshold: 2})
}

func TestCIRNames(t *testing.T) {
	o := NewOnesCount(OnesCountConfig{Entries: 16, Bits: 8, Threshold: 6})
	g := NewGlobalMDCIndexed(OnesCountConfig{Entries: 16, Bits: 8, Threshold: 6})
	if o.Name() == g.Name() || o.Name() == "" {
		t.Errorf("names collide or empty: %q %q", o.Name(), g.Name())
	}
}

func BenchmarkOnesCount(b *testing.B) {
	o := NewOnesCount(OnesCountConfig{Entries: 4096, Bits: 8, Threshold: 6})
	in := info(true, 0x3c5)
	for i := 0; i < b.N; i++ {
		pc := int64(i & 0xffff)
		_ = o.Estimate(pc, in)
		o.Resolve(pc, in, i&7 != 0)
	}
}

func TestJRSMcFarlingBothTables(t *testing.T) {
	j := NewJRSMcFarling(JRSConfig{Entries: 64, Bits: 4, Threshold: 2}, BothTables)
	in := bpred.Info{Pred: true, Hist: 0x15}
	pc := int64(9)
	j.Resolve(pc, in, true)
	j.Resolve(pc, in, true)
	if !j.Estimate(pc, in) {
		t.Error("both tables trained; should be high confidence")
	}
	// A misprediction resets both tables.
	j.Resolve(pc, in, false)
	if j.Estimate(pc, in) {
		t.Error("reset did not propagate")
	}
}

func TestJRSMcFarlingMetaSelected(t *testing.T) {
	j := NewJRSMcFarling(JRSConfig{Entries: 256, Bits: 4, Threshold: 2}, MetaSelected)
	pc := int64(4)
	// Two infos with different histories: the bimodal-side index is
	// history-independent, the gshare-side index is not.
	inA := bpred.Info{Pred: true, Hist: 0x01, Meta: 3} // meta -> gshare table
	inB := bpred.Info{Pred: true, Hist: 0x02, Meta: 0} // meta -> bimodal table
	// Train twice under history A.
	j.Resolve(pc, inA, true)
	j.Resolve(pc, inA, true)
	// gshare table under history B is cold -> low confidence.
	if j.Estimate(pc, bpred.Info{Pred: true, Hist: 0x02, Meta: 3}) {
		t.Error("meta->gshare with cold history should be low confidence")
	}
	// bimodal table ignores history -> high confidence.
	if !j.Estimate(pc, inB) {
		t.Error("meta->bimodal should see the trained pc-indexed counter")
	}
}

func TestJRSMcFarlingInterfaceAndNames(t *testing.T) {
	var both Estimator = NewJRSMcFarling(JRSConfig{Entries: 16, Bits: 4, Threshold: 1}, BothTables)
	var meta Estimator = NewJRSMcFarling(JRSConfig{Entries: 16, Bits: 4, Threshold: 1}, MetaSelected)
	if both.Name() == meta.Name() {
		t.Error("variant names collide")
	}
}

func TestJRSMcFarlingPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid config accepted")
		}
	}()
	NewJRSMcFarling(JRSConfig{}, BothTables)
}

func TestAndOrCombinators(t *testing.T) {
	hi, lo := Always{High: true}, Always{High: false}
	in := bpred.Info{}
	cases := []struct {
		est  Estimator
		want bool
	}{
		{And{hi, hi}, true},
		{And{hi, lo}, false},
		{And{lo, hi}, false},
		{And{lo, lo}, false},
	}
	for _, c := range cases {
		if got := c.est.Estimate(0, in); got != c.want {
			t.Errorf("%s = %v, want %v", c.est.Name(), got, c.want)
		}
	}
}

func TestCombinatorsEvaluateBothSides(t *testing.T) {
	// Stateful inner estimators must see every branch even when the
	// other side short-circuits the logical result.
	c, d := &scripted{seq: []bool{false}}, &scripted{seq: []bool{false}}
	And{c, d}.Estimate(0, bpred.Info{})
	if c.i != 1 || d.i != 1 {
		t.Error("And short-circuited an inner estimator")
	}
}

func TestCombinatorsForwardResolve(t *testing.T) {
	a, b := &scripted{seq: []bool{true}}, &scripted{seq: []bool{true}}
	And{a, b}.Resolve(0, bpred.Info{}, true)
	if a.res != 1 || b.res != 1 {
		t.Errorf("resolve counts = %d,%d, want 1,1", a.res, b.res)
	}
}

func TestAndTightensOrLoosens(t *testing.T) {
	// Property on random estimate pairs: And implies each side.
	j := NewJRS(JRSConfig{Entries: 64, Bits: 4, Threshold: 2})
	s := SatCounters{}
	and := And{j, s}
	for i := 0; i < 500; i++ {
		in := bpred.Info{Pred: i&1 == 0, Hist: uint64(i * 7), C1: bpred.Counter2(i % 4)}
		pc := int64(i % 50)
		av := and.Estimate(pc, in)
		jv := j.Estimate(pc, in)
		sv := s.Estimate(pc, in)
		if av && (!jv || !sv) {
			t.Fatal("And true while a side is false")
		}
		j.Resolve(pc, in, i%3 != 0)
	}
}

func TestPatternProfilerCollects(t *testing.T) {
	p := NewPatternProfiler(4)
	in1 := bpred.Info{Hist: 0b1010}
	in2 := bpred.Info{Hist: 0b1111}
	if !p.Estimate(0, in1) {
		t.Error("profiler must be neutral (always high confidence)")
	}
	for i := 0; i < 10; i++ {
		p.Resolve(0, in1, true)
	}
	p.Resolve(0, in1, false)
	p.Resolve(0, in2, true)
	if p.Patterns() != 2 {
		t.Fatalf("patterns = %d, want 2", p.Patterns())
	}
	top := p.Top(1)
	if len(top) != 1 || top[0].Pattern != 0b1010 || top[0].Total != 11 {
		t.Errorf("Top(1) = %+v", top)
	}
	if acc := top[0].Accuracy(); acc < 0.90 || acc > 0.92 {
		t.Errorf("accuracy = %v, want ~10/11", acc)
	}
	cov, acc := p.Dominance(1)
	if cov < 0.91 || cov > 0.92 {
		t.Errorf("coverage = %v, want 11/12", cov)
	}
	if acc < 0.90 || acc > 0.92 {
		t.Errorf("dominance accuracy = %v", acc)
	}
	// Top beyond the population clamps.
	if got := len(p.Top(10)); got != 2 {
		t.Errorf("Top(10) = %d rows", got)
	}
}

func TestPatternProfilerMasksHistory(t *testing.T) {
	p := NewPatternProfiler(4)
	p.Resolve(0, bpred.Info{Hist: 0xF5}, true) // low nibble 0101
	p.Resolve(0, bpred.Info{Hist: 0x05}, true)
	if p.Patterns() != 1 {
		t.Errorf("high history bits not masked: %d patterns", p.Patterns())
	}
}

func TestPatternProfilerEmptyDominance(t *testing.T) {
	p := NewPatternProfiler(4)
	cov, acc := p.Dominance(8)
	if cov != 0 || acc != 0 {
		t.Errorf("empty dominance = (%v,%v)", cov, acc)
	}
	if p.Name() == "" {
		t.Error("empty name")
	}
}

func TestPatternProfilerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bits 0 accepted")
		}
	}()
	NewPatternProfiler(0)
}

func TestDistanceResolveCorrectKeepsCounting(t *testing.T) {
	d := NewDistance(1)
	in := bpred.Info{}
	d.Estimate(0, in)
	d.Resolve(0, in, true)
	if d.Count() != 1 {
		t.Errorf("count = %d after correct resolve", d.Count())
	}
}

func TestPatternHistoryEstimateMatchesConfident(t *testing.T) {
	p := NewPatternHistory(8)
	for _, h := range []uint64{0x00, 0xFF, 0x55, 0x33} {
		if p.Estimate(0, bpred.Info{Hist: h}) != p.Confident(h) {
			t.Errorf("Estimate and Confident disagree on %08b", h)
		}
	}
	// Resolve is a no-op but must not panic.
	p.Resolve(0, bpred.Info{}, true)
	Static{}.Resolve(0, bpred.Info{}, true)
}
