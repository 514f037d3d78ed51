package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

// paperExample is the worked example from §2.1: 100 branches, 80 correct,
// estimator says HC for 61 correct and 2 incorrect, LC for 19 correct and
// 18 incorrect.
var paperExample = Quadrant{Chc: 61, Ihc: 2, Clc: 19, Ilc: 18}

func approx(got, want, tol float64) bool { return math.Abs(got-want) <= tol }

func TestPaperWorkedExample(t *testing.T) {
	q := paperExample
	if !approx(q.Sens(), 61.0/80, 1e-9) {
		t.Errorf("SENS = %v, want 76%%", q.Sens())
	}
	if !approx(q.PVP(), 61.0/63, 1e-9) {
		t.Errorf("PVP = %v, want 97%%", q.PVP())
	}
	if !approx(q.Spec(), 18.0/20, 1e-9) {
		t.Errorf("SPEC = %v, want 90%%", q.Spec())
	}
	if !approx(q.PVN(), 18.0/37, 1e-9) {
		t.Errorf("PVN = %v, want 49%%", q.PVN())
	}
	if !approx(q.Accuracy(), 0.80, 1e-9) {
		t.Errorf("accuracy = %v, want 0.80", q.Accuracy())
	}
}

func TestRecordRoutesQuadrants(t *testing.T) {
	var q Quadrant
	q.Record(true, true)
	q.Record(false, true)
	q.Record(true, false)
	q.Record(false, false)
	if q != (Quadrant{Chc: 1, Ihc: 1, Clc: 1, Ilc: 1}) {
		t.Errorf("Record routing wrong: %+v", q)
	}
	if q.Total() != 4 || q.Correct() != 2 || q.Incorrect() != 2 {
		t.Error("counts wrong")
	}
}

func TestEmptyQuadrantSafe(t *testing.T) {
	var q Quadrant
	m := q.Compute()
	if m.Sens != 0 || m.Spec != 0 || m.PVP != 0 || m.PVN != 0 || m.Accuracy != 0 {
		t.Error("empty quadrant should yield zero metrics, not NaN")
	}
}

func TestJacobsenMetrics(t *testing.T) {
	q := paperExample
	if !approx(q.JacobsenMisestimateRate(), 21.0/100, 1e-9) {
		t.Errorf("Jacobsen misestimate rate = %v", q.JacobsenMisestimateRate())
	}
	if !approx(q.JacobsenCoverage(), 37.0/100, 1e-9) {
		t.Errorf("Jacobsen coverage = %v", q.JacobsenCoverage())
	}
}

// Property (§2.1): SENS depends only on correctly predicted branches and
// SPEC only on incorrect ones, so scaling the other class leaves them
// unchanged — they are independent of prediction accuracy.
func TestSensSpecIndependentOfAccuracy(t *testing.T) {
	f := func(chc, clc, ihc, ilc uint16, scale uint8) bool {
		k := uint64(scale%7) + 2
		q1 := Quadrant{Chc: uint64(chc), Clc: uint64(clc), Ihc: uint64(ihc), Ilc: uint64(ilc)}
		// Scale only the incorrect side: SENS must not move.
		q2 := q1
		q2.Ihc *= k
		q2.Ilc *= k
		if !approx(q1.Sens(), q2.Sens(), 1e-12) || !approx(q1.Spec(), q2.Spec(), 1e-12) {
			return false
		}
		// Scale only the correct side: SPEC must not move.
		q3 := q1
		q3.Chc *= k
		q3.Clc *= k
		return approx(q1.Spec(), q3.Spec(), 1e-12) && approx(q1.Sens(), q3.Sens(), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the analytic Bayes identities must reproduce PVP/PVN from
// (SENS, SPEC, accuracy) for any non-degenerate quadrant.
func TestAnalyticIdentitiesMatchQuadrants(t *testing.T) {
	f := func(chc, clc, ihc, ilc uint16) bool {
		q := Quadrant{
			Chc: uint64(chc) + 1, Clc: uint64(clc) + 1,
			Ihc: uint64(ihc) + 1, Ilc: uint64(ilc) + 1,
		}
		pvp := AnalyticPVP(q.Sens(), q.Spec(), q.Accuracy())
		pvn := AnalyticPVN(q.Sens(), q.Spec(), q.Accuracy())
		return approx(pvp, q.PVP(), 1e-9) && approx(pvn, q.PVN(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAnalyticMonotonicity(t *testing.T) {
	// Figure 1's qualitative claims: at fixed SENS and accuracy, raising
	// SPEC raises PVP; at fixed SPEC and accuracy, raising SENS raises
	// PVN; raising accuracy lowers PVN.
	prev := -1.0
	for spec := 0.1; spec < 1.0; spec += 0.1 {
		v := AnalyticPVP(0.7, spec, 0.9)
		if v < prev {
			t.Errorf("PVP not monotone in SPEC at %v", spec)
		}
		prev = v
	}
	prev = -1.0
	for sens := 0.1; sens < 1.0; sens += 0.1 {
		v := AnalyticPVN(sens, 0.7, 0.9)
		if v < prev {
			t.Errorf("PVN not monotone in SENS at %v", sens)
		}
		prev = v
	}
	if AnalyticPVN(0.7, 0.7, 0.95) >= AnalyticPVN(0.7, 0.7, 0.7) {
		t.Error("PVN should fall as accuracy rises")
	}
}

func TestAggregateMatchesPaperRule(t *testing.T) {
	qs := []Quadrant{
		{Chc: 10, Ihc: 5, Clc: 5, Ilc: 10},
		{Chc: 100, Ihc: 1, Clc: 1, Ilc: 1},
	}
	sum := Aggregate(qs)
	if sum != (Quadrant{Chc: 110, Ihc: 6, Clc: 6, Ilc: 11}) {
		t.Errorf("Aggregate = %+v", sum)
	}
	// The aggregate PVP must differ from the mean of the individual
	// PVPs (this is the point of the paper's rule).
	meanOfRatios := (qs[0].PVP() + qs[1].PVP()) / 2
	if approx(sum.PVP(), meanOfRatios, 1e-6) {
		t.Error("aggregate PVP coincidentally equals mean of ratios; pick better test data")
	}
}

func TestAggregateNormalizedEqualWeights(t *testing.T) {
	// A huge benchmark and a tiny one with identical shape must produce
	// the same normalized aggregate as either alone.
	a := Quadrant{Chc: 8000, Ihc: 1000, Clc: 500, Ilc: 500}
	b := Quadrant{Chc: 8, Ihc: 1, Clc: 1, Ilc: 0}
	n := AggregateNormalized([]Quadrant{a, b})
	wantChc := (0.8 + 0.8) / 2
	if !approx(n.Chc, wantChc, 1e-9) {
		t.Errorf("normalized Chc = %v, want %v", n.Chc, wantChc)
	}
	total := n.Chc + n.Ihc + n.Clc + n.Ilc
	if !approx(total, 1.0, 1e-9) {
		t.Errorf("normalized quadrants sum to %v", total)
	}
	m := n.Compute()
	if m.Sens <= 0 || m.PVP <= 0 {
		t.Error("normalized metrics degenerate")
	}
}

func TestAggregateNormalizedSkipsEmpty(t *testing.T) {
	n := AggregateNormalized([]Quadrant{{}, {Chc: 1, Ilc: 1}})
	if !approx(n.Chc, 0.5, 1e-9) || !approx(n.Ilc, 0.5, 1e-9) {
		t.Errorf("empty quadrant not skipped: %+v", n)
	}
}

func TestBoostedPVN(t *testing.T) {
	// §4.2's example: boosting a PVN of 30% over two events gives ~51%.
	got := BoostedPVN(0.30, 2)
	if !approx(got, 0.51, 1e-9) {
		t.Errorf("BoostedPVN(0.3, 2) = %v, want 0.51", got)
	}
	if !approx(BoostedPVN(0.3, 1), 0.3, 1e-12) {
		t.Error("k=1 must be identity")
	}
	if BoostedPVN(0.3, 0) != 0 {
		t.Error("k=0 must be 0")
	}
	// Monotone in k.
	prev := 0.0
	for k := 1; k < 10; k++ {
		v := BoostedPVN(0.2, k)
		if v <= prev {
			t.Errorf("BoostedPVN not increasing at k=%d", k)
		}
		prev = v
	}
}

func TestMetricsString(t *testing.T) {
	s := paperExample.Compute().String()
	if s == "" {
		t.Error("empty metrics string")
	}
	// Spot check the formatted percentages.
	want := "sens= 76% spec= 90% pvp= 97% pvn= 49%"
	if s != want {
		t.Errorf("String() = %q, want %q", s, want)
	}
}

func TestAddAccumulates(t *testing.T) {
	a := Quadrant{Chc: 1, Ihc: 2, Clc: 3, Ilc: 4}
	b := Quadrant{Chc: 10, Ihc: 20, Clc: 30, Ilc: 40}
	a.Add(b)
	if a != (Quadrant{Chc: 11, Ihc: 22, Clc: 33, Ilc: 44}) {
		t.Errorf("Add = %+v", a)
	}
}

func BenchmarkRecord(b *testing.B) {
	var q Quadrant
	for i := 0; i < b.N; i++ {
		q.Record(i&3 != 0, i&7 != 0)
	}
}

func TestWilsonInterval(t *testing.T) {
	// 50/100 at 95%: the classic Wilson interval is about [0.404, 0.596].
	lo, hi := WilsonInterval(50, 100, 1.96)
	if !approx(lo, 0.404, 0.005) || !approx(hi, 0.596, 0.005) {
		t.Errorf("Wilson(50/100) = [%.3f, %.3f]", lo, hi)
	}
	// The interval must contain the point estimate.
	for _, c := range []struct{ s, n uint64 }{{0, 10}, {10, 10}, {3, 7}, {500, 100000}} {
		lo, hi := WilsonInterval(c.s, c.n, 1.96)
		p := float64(c.s) / float64(c.n)
		if p < lo-1e-12 || p > hi+1e-12 {
			t.Errorf("interval [%v,%v] excludes point %v", lo, hi, p)
		}
		if lo < 0 || hi > 1 {
			t.Errorf("interval [%v,%v] out of [0,1]", lo, hi)
		}
	}
	// More samples shrink the interval.
	lo1, hi1 := WilsonInterval(50, 100, 1.96)
	lo2, hi2 := WilsonInterval(5000, 10000, 1.96)
	if hi2-lo2 >= hi1-lo1 {
		t.Error("interval did not shrink with samples")
	}
	// Zero total: vacuous interval.
	lo, hi = WilsonInterval(0, 0, 1.96)
	if lo != 0 || hi != 1 {
		t.Errorf("empty interval = [%v,%v]", lo, hi)
	}
}

func TestQuadrantIntervals(t *testing.T) {
	q := Quadrant{Chc: 61, Ihc: 2, Clc: 19, Ilc: 18}
	lo, hi := q.PVNInterval(1.96)
	if !(lo < q.PVN() && q.PVN() < hi) {
		t.Errorf("PVN %v outside its interval [%v,%v]", q.PVN(), lo, hi)
	}
}

func TestAUCChanceAndPerfect(t *testing.T) {
	// No interior points: straight diagonal = 0.5.
	if got := AUC(nil); !approx(got, 0.5, 1e-9) {
		t.Errorf("empty AUC = %v", got)
	}
	// A perfect separator passes through (0,1).
	if got := AUC([]ROCPoint{{0, 1}}); !approx(got, 1.0, 1e-9) {
		t.Errorf("perfect AUC = %v", got)
	}
	// A realistic concave sweep lands strictly between.
	sweep := []ROCPoint{{0.05, 0.5}, {0.2, 0.8}, {0.5, 0.95}}
	got := AUC(sweep)
	if got <= 0.5 || got >= 1.0 {
		t.Errorf("sweep AUC = %v", got)
	}
}

func TestAUCOrderIndependent(t *testing.T) {
	a := AUC([]ROCPoint{{0.1, 0.6}, {0.3, 0.8}})
	b := AUC([]ROCPoint{{0.3, 0.8}, {0.1, 0.6}})
	if !approx(a, b, 1e-12) {
		t.Errorf("AUC depends on input order: %v vs %v", a, b)
	}
}

func TestROCFromQuadrant(t *testing.T) {
	q := Quadrant{Chc: 80, Clc: 20, Ihc: 5, Ilc: 15}
	pt := ROCFromQuadrant(q)
	if !approx(pt.TPR, 0.8, 1e-9) || !approx(pt.FPR, 0.25, 1e-9) {
		t.Errorf("ROC point = %+v", pt)
	}
}

// TestDegenerateQuadrants pins the zero-denominator behavior of every
// ratio metric: degenerate tables (no events, no mispredictions, no
// high-confidence estimates, ...) must yield 0, never NaN or Inf, so
// report tables and exported gauges stay finite.
func TestDegenerateQuadrants(t *testing.T) {
	cases := []struct {
		name string
		q    Quadrant
		want Metrics
	}{
		{
			name: "empty",
			q:    Quadrant{},
			want: Metrics{},
		},
		{
			name: "all correct high confidence",
			q:    Quadrant{Chc: 10},
			// No incorrect events → SPEC undefined → 0; no LC events
			// → PVN undefined → 0.
			want: Metrics{Sens: 1, PVP: 1, Accuracy: 1},
		},
		{
			name: "all correct low confidence",
			q:    Quadrant{Clc: 10},
			want: Metrics{Accuracy: 1},
		},
		{
			name: "all incorrect high confidence",
			q:    Quadrant{Ihc: 10},
			want: Metrics{},
		},
		{
			name: "all incorrect low confidence",
			q:    Quadrant{Ilc: 10},
			want: Metrics{Spec: 1, PVN: 1},
		},
		{
			name: "no high confidence events",
			q:    Quadrant{Clc: 6, Ilc: 2},
			want: Metrics{Spec: 1, PVN: 0.25, Accuracy: 0.75},
		},
		{
			name: "no mispredictions",
			q:    Quadrant{Chc: 3, Clc: 1},
			want: Metrics{Sens: 0.75, PVP: 1, Accuracy: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.q.Compute()
			for _, v := range []struct {
				metric string
				got    float64
				want   float64
			}{
				{"Sens", got.Sens, tc.want.Sens},
				{"Spec", got.Spec, tc.want.Spec},
				{"PVP", got.PVP, tc.want.PVP},
				{"PVN", got.PVN, tc.want.PVN},
				{"Accuracy", got.Accuracy, tc.want.Accuracy},
				{"MispredictRate", tc.q.MispredictRate(), 1 - tc.want.Accuracy},
			} {
				if v.metric == "MispredictRate" && tc.q.Total() == 0 {
					// Empty table: both accuracy and mispredict rate
					// are 0 by the zero-denominator rule, so the
					// 1-Accuracy identity does not apply.
					v.want = 0
				}
				if v.got != v.got || v.got != v.want {
					t.Errorf("%s = %v, want %v (NaN check: %v)",
						v.metric, v.got, v.want, v.got != v.got)
				}
			}
		})
	}
}

// TestDegenerateJacobsenAndIntervals covers the remaining ratio
// surfaces on an empty table.
func TestDegenerateJacobsenAndIntervals(t *testing.T) {
	var q Quadrant
	if got := q.JacobsenMisestimateRate(); got != 0 {
		t.Errorf("empty JacobsenMisestimateRate = %v", got)
	}
	if got := q.JacobsenCoverage(); got != 0 {
		t.Errorf("empty JacobsenCoverage = %v", got)
	}
	if lo, hi := q.PVNInterval(1.96); lo != 0 || hi != 1 {
		t.Errorf("empty PVNInterval = [%v,%v], want [0,1]", lo, hi)
	}
	if got := (NormalizedQuadrant{}).Compute(); got != (Metrics{}) {
		t.Errorf("empty normalized metrics = %+v", got)
	}
	if got := AggregateNormalized(nil).Compute(); got != (Metrics{}) {
		t.Errorf("nil AggregateNormalized metrics = %+v", got)
	}
	// All-empty per-benchmark tables are skipped, not divided by.
	if got := AggregateNormalized([]Quadrant{{}, {}}).Compute(); got != (Metrics{}) {
		t.Errorf("all-empty AggregateNormalized metrics = %+v", got)
	}
	// Analytic identities at the p=0 and p=1 poles.
	if got := AnalyticPVP(0, 1, 0.5); got != 0 {
		t.Errorf("AnalyticPVP(0,1,.5) = %v", got)
	}
	if got := AnalyticPVN(1, 1, 1); got != 0 {
		t.Errorf("AnalyticPVN(1,1,1) = %v", got)
	}
}
