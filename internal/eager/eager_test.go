package eager

import (
	"testing"
	"testing/quick"

	"specctrl/internal/metrics"
)

func TestEvaluateWinCase(t *testing.T) {
	// A perfect estimator: all mispredictions flagged LC, no false
	// alarms. Eager execution replaces every penalty with a fork cost.
	m := Model{MispredictPenalty: 10, ForkCost: 2}
	q := metrics.Quadrant{Chc: 900, Ilc: 100}
	o, err := m.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	if o.BaselineCost != 1000 {
		t.Errorf("baseline = %v, want 1000", o.BaselineCost)
	}
	if o.EagerCost != 200 {
		t.Errorf("eager = %v, want 200", o.EagerCost)
	}
	if o.SavedPerKilo <= 0 {
		t.Error("perfect estimator should be profitable")
	}
}

func TestEvaluateFalseAlarmsHurt(t *testing.T) {
	// An estimator that cries wolf: everything LC. Forks on every
	// branch; profitable only while misprediction is frequent enough.
	m := Model{MispredictPenalty: 10, ForkCost: 2}
	rare := metrics.Quadrant{Clc: 990, Ilc: 10} // 1% mispredict
	o, err := m.Evaluate(rare)
	if err != nil {
		t.Fatal(err)
	}
	if o.SavedPerKilo > 0 {
		t.Errorf("forking every branch at 1%% mispredict should lose: %+v", o)
	}
	frequent := metrics.Quadrant{Clc: 700, Ilc: 300} // 30% mispredict
	o2, _ := m.Evaluate(frequent)
	if o2.SavedPerKilo <= 0 {
		t.Errorf("forking every branch at 30%% mispredict should win: %+v", o2)
	}
}

func TestHighConfMispredictionsStillPay(t *testing.T) {
	m := Model{MispredictPenalty: 10, ForkCost: 2}
	q := metrics.Quadrant{Chc: 800, Ihc: 200} // estimator misses everything
	o, err := m.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	if o.EagerCost != o.BaselineCost {
		t.Errorf("an estimator that never fires must change nothing: %+v", o)
	}
	if o.Forks != 0 {
		t.Errorf("forks = %v, want 0", o.Forks)
	}
}

// Property: improving SPEC at constant accuracy and constant PVN-side
// noise never decreases the saving — moving a misprediction from HC to
// LC always helps (penalty > fork cost).
func TestMovingMispredictionsToLCAlwaysHelps(t *testing.T) {
	m := DefaultModel()
	f := func(chc, clc, ihc, ilc uint16) bool {
		q := metrics.Quadrant{
			Chc: uint64(chc) + 10, Clc: uint64(clc),
			Ihc: uint64(ihc) + 10, Ilc: uint64(ilc),
		}
		o1, err1 := m.Evaluate(q)
		q2 := q
		q2.Ihc--
		q2.Ilc++
		o2, err2 := m.Evaluate(q2)
		if err1 != nil || err2 != nil {
			return false
		}
		return o2.SavedPerKilo >= o1.SavedPerKilo-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestValidate(t *testing.T) {
	bad := []Model{
		{MispredictPenalty: 0, ForkCost: 0},
		{MispredictPenalty: 5, ForkCost: -1},
		{MispredictPenalty: 5, ForkCost: 5},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("model %+v accepted", m)
		}
	}
	if err := DefaultModel().Validate(); err != nil {
		t.Errorf("DefaultModel invalid: %v", err)
	}
}

func TestEvaluateEmptyQuadrant(t *testing.T) {
	if _, err := DefaultModel().Evaluate(metrics.Quadrant{}); err == nil {
		t.Error("empty quadrant accepted")
	}
}
