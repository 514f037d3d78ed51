package profile

import (
	"testing"

	"specctrl/internal/bpred"
	"specctrl/internal/conf"
	"specctrl/internal/isa"
	"specctrl/internal/pipeline"
	"specctrl/internal/rng"
)

// mixedProgram has one almost-always-correct branch site and one
// coin-flip site, so the profile must separate them.
func mixedProgram(iters int) *isa.Program {
	b := isa.NewBuilder("mixed")
	g := rng.New(3)
	for i := int64(0); i < 512; i++ {
		b.Word(3000+i, int64(g.Intn(2)))
	}
	b.Li(1, 0).Li(2, int32(iters)).Li(4, 3000)
	b.Label("loop")
	b.Andi(5, 1, 511)
	b.Add(5, 4, 5)
	b.Ld(6, 5, 0)
	b.Beq(6, isa.Zero, "skip") // hard site
	b.Addi(3, 3, 1)
	b.Label("skip")
	b.Addi(1, 1, 1)
	b.Blt(1, 2, "loop") // easy site
	b.Halt()
	return b.MustBuild()
}

func cfg() pipeline.Config {
	c := pipeline.DefaultConfig()
	c.MaxCycles = 10_000_000
	return c
}

// profiled is the training pass: one run of p with site statistics
// enabled, thresholded by FromSites.
func profiled(t *testing.T, p *isa.Program) conf.Static {
	t.Helper()
	c := cfg()
	c.CollectSiteStats = true
	st, err := pipeline.MustNew(c, p, bpred.NewGshare(12)).Run()
	if err != nil {
		t.Fatal(err)
	}
	return FromSites(st.Sites, DefaultOptions())
}

func TestCollectSeparatesSites(t *testing.T) {
	p := mixedProgram(5000)
	est := profiled(t, p)
	if len(est.HighConfidence) == 0 {
		t.Fatal("profile marked no sites high confidence")
	}
	// Find the two branch PCs: the loop-back branch must be HC, the
	// data-dependent one must not.
	var hardPC, easyPC int64 = -1, -1
	for pc, in := range p.Code {
		if in.Op == isa.OpBeq {
			hardPC = int64(pc)
		}
		if in.Op == isa.OpBlt {
			easyPC = int64(pc)
		}
	}
	if !est.HighConfidence[easyPC] {
		t.Error("loop-back site should be high confidence")
	}
	if est.HighConfidence[hardPC] {
		t.Error("coin-flip site should be low confidence")
	}
}

func TestMinSamples(t *testing.T) {
	sites := map[int64]*pipeline.SiteStats{
		1: {Correct: 2, Total: 2},      // perfect but tiny
		2: {Correct: 990, Total: 1000}, // well sampled
	}
	est := FromSites(sites, Options{Threshold: 0.9, MinSamples: 10})
	if est.HighConfidence[1] {
		t.Error("under-sampled site should default to low confidence")
	}
	if !est.HighConfidence[2] {
		t.Error("well-sampled accurate site should be high confidence")
	}
}

func TestSelfProfiledEstimatorBeatsChance(t *testing.T) {
	// Evaluate the static estimator on the same program/input (the
	// paper's self-profiled best case): its PVP must exceed the base
	// accuracy and its committed quadrant must be populated.
	p := mixedProgram(5000)
	est := profiled(t, p)
	c := cfg()
	c.Estimators = []conf.Estimator{est}
	sim := pipeline.MustNew(c, p, bpred.NewGshare(12))
	st, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	q := st.Confidence[0].CommittedQ
	if q.PVP() <= q.Accuracy() {
		t.Errorf("static PVP %.3f should exceed base accuracy %.3f", q.PVP(), q.Accuracy())
	}
}

func TestTuneGoalSPEC(t *testing.T) {
	// Synthetic profile: three site classes with distinct accuracies.
	sites := map[int64]*pipeline.SiteStats{
		1: {Correct: 500, Total: 1000}, // 50% — worst
		2: {Correct: 850, Total: 1000}, // 85%
		3: {Correct: 990, Total: 1000}, // 99% — best
	}
	// Total mispredictions: 500+150+10 = 660.
	// Target SPEC 0.7 => cover >= 462 mispredictions: site 1 alone
	// covers 500 -> enough; sites 2,3 stay high confidence.
	est, err := Tune(sites, GoalSPEC, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if est.HighConfidence[1] {
		t.Error("worst site should be low confidence")
	}
	if !est.HighConfidence[2] || !est.HighConfidence[3] {
		t.Error("good sites should stay high confidence")
	}
	// Target SPEC 0.95 => need 627: site 1 (500) + site 2 (150) = 650.
	est, err = Tune(sites, GoalSPEC, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if est.HighConfidence[1] || est.HighConfidence[2] {
		t.Error("two worst sites should be low confidence at SPEC 0.95")
	}
	if !est.HighConfidence[3] {
		t.Error("best site should stay high confidence")
	}
}

func TestTuneGoalPVN(t *testing.T) {
	sites := map[int64]*pipeline.SiteStats{
		1: {Correct: 400, Total: 1000}, // 60% mispredict
		2: {Correct: 800, Total: 1000}, // 20% mispredict
		3: {Correct: 990, Total: 1000}, // 1% mispredict
	}
	// Target PVN 0.5: site 1 alone gives purity 0.6 >= 0.5; adding
	// site 2 gives (600+200)/2000 = 0.4 < 0.5 -> stop after site 1.
	est, err := Tune(sites, GoalPVN, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if est.HighConfidence[1] {
		t.Error("site 1 should be marked low confidence")
	}
	if !est.HighConfidence[2] || !est.HighConfidence[3] {
		t.Error("sites 2,3 would dilute purity below target")
	}
	// Target PVN 0.35: sites 1+2 give 0.4 >= 0.35; adding site 3 gives
	// (800+10)/3000 = 0.27 < 0.35 -> stop after two.
	est, err = Tune(sites, GoalPVN, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	if est.HighConfidence[1] || est.HighConfidence[2] {
		t.Error("sites 1,2 should be low confidence at PVN 0.35")
	}
	if !est.HighConfidence[3] {
		t.Error("site 3 should stay high confidence")
	}
}

func TestTuneRejectsBadInput(t *testing.T) {
	if _, err := Tune(nil, GoalSPEC, 0); err == nil {
		t.Error("target 0 accepted")
	}
	if _, err := Tune(nil, GoalSPEC, 1.5); err == nil {
		t.Error("target > 1 accepted")
	}
	if _, err := Tune(map[int64]*pipeline.SiteStats{1: {Correct: 1, Total: 2}}, TuneGoal(9), 0.5); err == nil {
		t.Error("unknown goal accepted")
	}
}

func TestTuneAchievesSPECEndToEnd(t *testing.T) {
	// Profile a real program, tune for SPEC targets, and verify the
	// achieved SPEC on a fresh evaluation run meets (or nearly meets —
	// self-profiling noise) each target.
	p := mixedProgram(8000)
	c := cfg()
	c.CollectSiteStats = true
	train := pipeline.MustNew(c, p, bpred.NewGshare(12))
	tst, err := train.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []float64{0.3, 0.6, 0.9} {
		est, err := Tune(tst.Sites, GoalSPEC, target)
		if err != nil {
			t.Fatal(err)
		}
		rc := cfg()
		rc.Estimators = []conf.Estimator{est}
		sim := pipeline.MustNew(rc, p, bpred.NewGshare(12))
		st, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		got := st.Confidence[0].CommittedQ.Spec()
		if got < target-0.12 {
			t.Errorf("target SPEC %.2f: achieved only %.3f", target, got)
		}
	}
}
