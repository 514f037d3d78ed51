package experiments

import (
	"strings"
	"testing"
)

// tp returns small-but-meaningful test parameters. Experiments sharing
// results cache them per test binary via package-level vars below, since
// several shape assertions read the same tables.
func tp() Params {
	return TestParams()
}

var (
	table1Cache *Table1Result
	table2Cache *Table2Result
)

func getTable1(t *testing.T) *Table1Result {
	t.Helper()
	if table1Cache == nil {
		r, err := Table1(tp())
		if err != nil {
			t.Fatal(err)
		}
		table1Cache = r
	}
	return table1Cache
}

func getTable2(t *testing.T) *Table2Result {
	t.Helper()
	if table2Cache == nil {
		r, err := Table2(tp())
		if err != nil {
			t.Fatal(err)
		}
		table2Cache = r
	}
	return table2Cache
}

func TestTable1Shape(t *testing.T) {
	r := getTable1(t)
	if len(r.Rows) != 8 {
		t.Fatalf("table 1 has %d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Committed == 0 || row.CommittedBr == 0 {
			t.Errorf("%s: empty row", row.Name)
		}
		if row.Ratio < 1.0 || row.Ratio > 3.0 {
			t.Errorf("%s: speculation ratio %.2f implausible", row.Name, row.Ratio)
		}
		if row.MispGshare <= 0 || row.MispGshare > 0.5 {
			t.Errorf("%s: gshare misprediction %.3f implausible", row.Name, row.MispGshare)
		}
	}
	// The paper's Table 1 property: speculation inflates instruction
	// counts by 20-100%; on the suite mean we accept 5-100%.
	mean := r.Mean()
	if mean.Ratio < 1.05 || mean.Ratio > 2.0 {
		t.Errorf("mean speculation ratio %.2f outside [1.05, 2.0]", mean.Ratio)
	}
	// McFarling must beat gshare on average (it's the point of the
	// combining predictor).
	if mean.MispMcF >= mean.MispGshare {
		t.Errorf("mcfarling (%.3f) should beat gshare (%.3f)", mean.MispMcF, mean.MispGshare)
	}
	if !strings.Contains(r.Render(), "compress") {
		t.Error("render missing benchmark rows")
	}
}

func TestTable2Shape(t *testing.T) {
	r := getTable2(t)
	if len(r.Cells) != 4 || len(r.Cells[0]) != 3 {
		t.Fatalf("table 2 wrong shape: %dx%d", len(r.Cells), len(r.Cells[0]))
	}

	jrsG, _ := r.Cell("JRS(>=15)", "gshare")
	satG, _ := r.Cell("SatCnt", "gshare")
	patG, _ := r.Cell("HistPattern", "gshare")
	staG, _ := r.Cell("Static(>90%)", "gshare")
	jrsM, _ := r.Cell("JRS(>=15)", "mcfarling")
	patS, _ := r.Cell("HistPattern", "sag")

	// Paper shape: JRS has the highest PVP of the four on gshare.
	for _, c := range []Table2Cell{satG, patG, staG} {
		if jrsG.Metrics.PVP < c.Metrics.PVP-0.02 {
			t.Errorf("JRS PVP %.3f should be at or near the top (vs %s %.3f)",
				jrsG.Metrics.PVP, c.Estimator, c.Metrics.PVP)
		}
	}
	// Saturating counters trade PVP for sensitivity on gshare: highest
	// SENS, lower SPEC than JRS.
	if satG.Metrics.Sens <= jrsG.Metrics.Sens {
		t.Errorf("SatCnt SENS %.3f should exceed JRS %.3f on gshare",
			satG.Metrics.Sens, jrsG.Metrics.Sens)
	}
	if satG.Metrics.Spec >= jrsG.Metrics.Spec {
		t.Errorf("SatCnt SPEC %.3f should be below JRS %.3f on gshare",
			satG.Metrics.Spec, jrsG.Metrics.Spec)
	}
	// Pattern history collapses on global-history predictors: low SENS,
	// high SPEC (it marks nearly everything low-confidence).
	if patG.Metrics.Sens > 0.5 {
		t.Errorf("HistPattern SENS %.3f on gshare should be low", patG.Metrics.Sens)
	}
	if patG.Metrics.Spec < 0.7 {
		t.Errorf("HistPattern SPEC %.3f on gshare should be high", patG.Metrics.Spec)
	}
	// ... and recovers dramatically on SAg (per-branch histories).
	if patS.Metrics.Sens <= patG.Metrics.Sens+0.1 {
		t.Errorf("HistPattern SENS should jump on SAg: gshare %.3f, sag %.3f",
			patG.Metrics.Sens, patS.Metrics.Sens)
	}
	// The more accurate McFarling predictor lowers the JRS PVN.
	if jrsM.Metrics.PVN >= jrsG.Metrics.PVN {
		t.Errorf("JRS PVN should fall from gshare (%.3f) to mcfarling (%.3f)",
			jrsG.Metrics.PVN, jrsM.Metrics.PVN)
	}
	if !strings.Contains(r.Render(), "JRS") {
		t.Error("render missing rows")
	}
}

func TestTable3Shape(t *testing.T) {
	r, err := Table3(tp())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("table 3 has %d rows", len(r.Rows))
	}
	both, either := r.Mean()
	// §3.3.1: Both-Strong has higher SPEC; Either-Strong has higher SENS.
	if both.Spec <= either.Spec {
		t.Errorf("BothStrong SPEC %.3f should exceed EitherStrong %.3f", both.Spec, either.Spec)
	}
	if either.Sens <= both.Sens {
		t.Errorf("EitherStrong SENS %.3f should exceed BothStrong %.3f", either.Sens, both.Sens)
	}
	// Both-Strong marks fewer branches high confidence overall.
	var bHC, eHC uint64
	for _, row := range r.Rows {
		bHC += row.BothQ.Chc + row.BothQ.Ihc
		eHC += row.EithQ.Chc + row.EithQ.Ihc
	}
	if bHC >= eHC {
		t.Error("BothStrong should mark fewer branches high confidence")
	}
	if !strings.Contains(r.Render(), "mean") {
		t.Error("render missing mean row")
	}
}

func TestTable4Shape(t *testing.T) {
	r, err := Table4(tp())
	if err != nil {
		t.Fatal(err)
	}
	// 10 rows per predictor (JRS, SatCnt, Static, Distance 1..7) plus
	// the SAg pattern row.
	if len(r.Rows) != 21 {
		t.Fatalf("table 4 has %d rows, want 21", len(r.Rows))
	}
	// Raising the distance threshold must raise SPEC and lower SENS
	// monotonically (more branches marked low confidence).
	for _, pred := range []string{"gshare", "mcfarling"} {
		prevSpec, prevSens := -1.0, 2.0
		for d := 1; d <= 7; d++ {
			row, ok := r.Find("Distance >"+string(rune('0'+d)), pred)
			if !ok {
				t.Fatalf("missing distance row %d/%s", d, pred)
			}
			if row.Metrics.Spec < prevSpec-0.01 {
				t.Errorf("%s distance %d: SPEC %.3f not increasing", pred, d, row.Metrics.Spec)
			}
			if row.Metrics.Sens > prevSens+0.01 {
				t.Errorf("%s distance %d: SENS %.3f not decreasing", pred, d, row.Metrics.Sens)
			}
			prevSpec, prevSens = row.Metrics.Spec, row.Metrics.Sens
		}
	}
	// PVN falls when moving from gshare to the more accurate McFarling,
	// for the JRS row (the paper's general observation).
	jg, _ := r.Find("JRS >=15", "gshare")
	jm, _ := r.Find("JRS >=15", "mcfarling")
	if jm.Metrics.PVN >= jg.Metrics.PVN {
		t.Errorf("JRS PVN should fall from gshare %.3f to mcfarling %.3f",
			jg.Metrics.PVN, jm.Metrics.PVN)
	}
	if !strings.Contains(r.Render(), "Distance") {
		t.Error("render missing distance rows")
	}
}

func TestFig1Shape(t *testing.T) {
	r := Fig1(tp())
	if len(r.Curves) != 6 {
		t.Fatalf("figure 1 has %d curves, want 6", len(r.Curves))
	}
	for _, c := range r.Curves {
		if len(c.Points) != 10 {
			t.Errorf("%s: %d points, want 10 deciles", c.Label, len(c.Points))
		}
		for _, pt := range c.Points {
			if pt.PVP < 0 || pt.PVP > 1 || pt.PVN < 0 || pt.PVN > 1 {
				t.Errorf("%s: point out of range: %+v", c.Label, pt)
			}
		}
	}
	// The vary-SPEC curves must be monotone in PVP.
	c := r.Curves[0]
	for i := 1; i < len(c.Points); i++ {
		if c.Points[i].PVP < c.Points[i-1].PVP {
			t.Errorf("%s: PVP not monotone in SPEC", c.Label)
		}
	}
	if !strings.Contains(r.Render(), "vary SENS") {
		t.Error("render missing curves")
	}
}

func TestFig3Shape(t *testing.T) {
	r, err := Fig3(tp())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Base) != 16 || len(r.Enhanced) != 16 {
		t.Fatalf("fig3 sweeps wrong length: %d/%d", len(r.Base), len(r.Enhanced))
	}
	// The paper's Figure 3 point: the enhanced variant dominates.
	// Compare PVN at matched SPEC-ish thresholds: check that for most
	// thresholds, enhanced PVP and PVN are at least the base values.
	wins, losses := 0, 0
	for i := range r.Base {
		be, en := r.Base[i].Metrics, r.Enhanced[i].Metrics
		if en.PVP+en.PVN >= be.PVP+be.PVN {
			wins++
		} else {
			losses++
		}
	}
	if wins <= losses {
		t.Errorf("enhanced JRS should dominate base: %d wins %d losses", wins, losses)
	}
	// Threshold 16 is unreachable: everything low confidence, so PVN
	// equals the misprediction rate and SENS is 0.
	last := r.Enhanced[15]
	if last.Threshold != 16 || last.Metrics.Sens != 0 {
		t.Errorf("threshold-16 endpoint wrong: %+v", last)
	}
	if last.Metrics.PVN < 0.01 || last.Metrics.PVN > 0.5 {
		t.Errorf("threshold-16 PVN %.3f should equal the misprediction rate", last.Metrics.PVN)
	}
}

func TestFig45Shape(t *testing.T) {
	r, err := Fig45(tp(), GshareSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Sizes) != 5 {
		t.Fatalf("fig4 has %d sizes", len(r.Sizes))
	}
	for _, n := range r.Sizes {
		if len(r.Lines[n]) != 16 {
			t.Errorf("size %d: %d points", n, len(r.Lines[n]))
		}
	}
	// Larger tables should not hurt: compare PVP at threshold 15
	// between the smallest and largest tables (aliasing hurts small
	// tables).
	small := r.Lines[256][14].Metrics
	large := r.Lines[4096][14].Metrics
	if large.PVP+0.03 < small.PVP {
		t.Errorf("4096-entry PVP %.3f should not trail 256-entry %.3f by >3%%",
			large.PVP, small.PVP)
	}
	// Raising the threshold raises SPEC monotonically along a line.
	for _, n := range r.Sizes {
		prev := -1.0
		for _, pt := range r.Lines[n] {
			if pt.Metrics.Spec < prev-0.01 {
				t.Errorf("size %d: SPEC not increasing with threshold", n)
			}
			prev = pt.Metrics.Spec
		}
	}
}

func TestFigDistanceShape(t *testing.T) {
	precise, err := FigDistance(tp(), GshareSpec(), false)
	if err != nil {
		t.Fatal(err)
	}
	perceived, err := FigDistance(tp(), GshareSpec(), true)
	if err != nil {
		t.Fatal(err)
	}
	// Clustering: the precise all-branches rate at distance 1-2 must
	// exceed the average rate.
	near := (precise.All.Rate[0] + precise.All.Rate[1]) / 2
	if near <= precise.All.Average {
		t.Errorf("precise distance-1/2 rate %.3f should exceed average %.3f",
			near, precise.All.Average)
	}
	// The far tail should drop to or below the average.
	far := precise.All.Rate[maxPlotDistance-1]
	if far > precise.All.Average*1.5 {
		t.Errorf("far-tail rate %.3f should approach average %.3f", far, precise.All.Average)
	}
	// Perceived curves are skewed right: the mass at short distances is
	// smaller than in the precise view.
	var precShort, percShort uint64
	for d := 0; d < 3; d++ {
		precShort += precise.All.Count[d]
		percShort += perceived.All.Count[d]
	}
	if percShort > precShort {
		t.Errorf("perceived short-distance mass %d should not exceed precise %d",
			percShort, precShort)
	}
	if !strings.Contains(precise.Render(), "dist") {
		t.Error("render missing table")
	}
}

func TestMisestShape(t *testing.T) {
	r, err := Misest(tp())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("misest has %d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Average <= 0 || row.Average >= 0.6 {
			t.Errorf("%s/%s: average mis-estimation rate %.3f implausible",
				row.Estimator, row.Predictor, row.Average)
		}
		// §4.1: mis-estimations are only slightly clustered — the rate
		// immediately after an error exceeds the far-distance rate.
		if row.Rate[0] <= row.Rate[len(row.Rate)-1]*0.8 {
			t.Errorf("%s/%s: no near-distance elevation: d1=%.3f dmax=%.3f",
				row.Estimator, row.Predictor, row.Rate[0], row.Rate[len(row.Rate)-1])
		}
	}
}

func TestBoostShape(t *testing.T) {
	r, err := Boost(tp(), GshareSpec(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("boost has %d rows", len(r.Rows))
	}
	if r.Rows[0].Groups == 0 {
		t.Fatal("no low-confidence events observed")
	}
	// k=1 measured PVN must be close to the estimator's base PVN.
	if d := r.Rows[0].MeasuredPVN - r.BasePVN; d > 0.08 || d < -0.08 {
		t.Errorf("k=1 measured PVN %.3f far from base %.3f", r.Rows[0].MeasuredPVN, r.BasePVN)
	}
	// Boosting must help: measured PVN increases with k.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].MeasuredPVN <= r.Rows[i-1].MeasuredPVN {
			t.Errorf("boosted PVN not increasing at k=%d: %.3f <= %.3f",
				r.Rows[i].K, r.Rows[i].MeasuredPVN, r.Rows[i-1].MeasuredPVN)
		}
	}
	// The Bernoulli approximation should be in the right ballpark for
	// k=2 (mis-estimations are only slightly clustered).
	k2 := r.Rows[1]
	if k2.MeasuredPVN < k2.BernoulliPVN*0.6 || k2.MeasuredPVN > k2.BernoulliPVN*1.6 {
		t.Errorf("k=2 measured %.3f vs bernoulli %.3f: approximation broken",
			k2.MeasuredPVN, k2.BernoulliPVN)
	}
}

func TestAblationWidth(t *testing.T) {
	r, err := AblationWidth(tp())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 10 {
		t.Fatalf("width ablation has %d points", len(r.Points))
	}
	// At saturation thresholds, wider counters are more specific: the
	// 6-bit/63 point must have SPEC at or above the 2-bit/3 point.
	var w2, w6 WidthPoint
	for _, pt := range r.Points {
		if pt.Bits == 2 && pt.Threshold == 3 {
			w2 = pt
		}
		if pt.Bits == 6 && pt.Threshold == 63 {
			w6 = pt
		}
	}
	if w6.Metrics.Spec < w2.Metrics.Spec {
		t.Errorf("6-bit SPEC %.3f should be >= 2-bit %.3f", w6.Metrics.Spec, w2.Metrics.Spec)
	}
	if !strings.Contains(r.Render(), "storage") {
		t.Error("render incomplete")
	}
}

func TestAblationSpecHistory(t *testing.T) {
	r, err := AblationSpecHistory(tp())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// The paper's claim: non-speculative update slightly increases the
	// misprediction rate on average. Allow zero but not a decrease
	// beyond noise.
	if d := r.MeanDelta(); d < -0.005 {
		t.Errorf("non-speculative update should not reduce mispredictions: delta %.4f", d)
	}
	if !strings.Contains(r.Render(), "nonspec") {
		t.Error("render incomplete")
	}
}

func TestAblationGating(t *testing.T) {
	p := tp()
	p.MaxCommitted = 60_000
	cc := &countingCache{}
	p.Cache = cc
	r, err := AblationGating(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 9 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// One baseline per workload plus one run per (estimator, threshold,
	// workload).
	if want := len(suite()) * (1 + 9); cc.computes != want {
		t.Fatalf("computed %d cells, want %d", cc.computes, want)
	}
	// For each estimator, raising the threshold lowers both reduction
	// and slowdown (monotone trade-off).
	byEst := map[string][]GatingPoint{}
	for _, pt := range r.Points {
		byEst[pt.Estimator] = append(byEst[pt.Estimator], pt)
	}
	for est, pts := range byEst {
		for i := 1; i < len(pts); i++ {
			if pts[i].Reduction > pts[i-1].Reduction+0.02 {
				t.Errorf("%s: reduction not decreasing with threshold", est)
			}
		}
	}
}

func TestAblationIndirect(t *testing.T) {
	p := tp()
	p.MaxCommitted = 60_000
	r, err := AblationIndirect(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Target prediction can only add wrong-path work.
		if row.BTBRatio+0.02 < row.BaseRatio {
			t.Errorf("%s: BTB ratio %.3f below base %.3f", row.Name, row.BTBRatio, row.BaseRatio)
		}
	}
	// xlisp is the call/ret-heavy benchmark: it must report returns.
	for _, row := range r.Rows {
		if row.Name == "xlisp" && row.Returns == 0 {
			t.Error("xlisp reported no returns")
		}
	}
}

func TestCostTable(t *testing.T) {
	r := Cost(tp())
	if len(r.Rows) < 6 {
		t.Fatal("cost table too small")
	}
	var jrs, sat int
	for _, row := range r.Rows {
		if row.Estimator == "JRS 4096x4" {
			jrs = row.StorageBits
		}
		if row.Estimator == "SatCnt" {
			sat = row.StorageBits
		}
	}
	if jrs != 16384 || sat != 0 {
		t.Errorf("costs wrong: jrs=%d sat=%d", jrs, sat)
	}
	if !strings.Contains(r.Render(), "notes") {
		t.Error("render incomplete")
	}
}

func TestCIRIndexingHypothesis(t *testing.T) {
	r, err := CIR(tp())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	jrs, _ := r.Find("JRS(pc^hist)")
	cir, _ := r.Find("CIR(pc^hist)")
	gmdc, _ := r.Find("CIR(globalMDC)")
	// The paper's hypothesis: matched indexing (JRS, CIR) beats the
	// global-MDC-indexed table on the PVP/SPEC axis it was built for.
	if gmdc.Metrics.PVP >= jrs.Metrics.PVP || gmdc.Metrics.PVP >= cir.Metrics.PVP {
		t.Errorf("global-MDC CIR PVP %.3f should trail matched-index JRS %.3f / CIR %.3f",
			gmdc.Metrics.PVP, jrs.Metrics.PVP, cir.Metrics.PVP)
	}
	if !strings.Contains(r.Render(), "globalMDC") {
		t.Error("render incomplete")
	}
}

func TestJRSMcfShape(t *testing.T) {
	r, err := JRSMcf(tp())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	plain, _ := r.Find("JRS t=15")
	both, _ := r.Find("JRSmcf-both t=15")
	// The conservative two-table variant must be at least as specific
	// as the single-table JRS (it requires both structures to agree).
	if both.Metrics.Spec+0.01 < plain.Metrics.Spec {
		t.Errorf("JRSmcf-both SPEC %.3f below plain JRS %.3f",
			both.Metrics.Spec, plain.Metrics.Spec)
	}
	// And correspondingly less sensitive.
	if both.Metrics.Sens > plain.Metrics.Sens+0.01 {
		t.Errorf("JRSmcf-both SENS %.3f above plain JRS %.3f",
			both.Metrics.Sens, plain.Metrics.Sens)
	}
	if !strings.Contains(r.Render(), "JRSmcf") {
		t.Error("render incomplete")
	}
}

func TestTunedShape(t *testing.T) {
	r, err := Tuned(tp())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		switch row.Goal {
		case "SPEC":
			// Self-profiled: achieved SPEC should be near or above the
			// target (generous slack for profile/eval noise at test scale).
			if row.Metrics.Spec < row.Target-0.15 {
				t.Errorf("SPEC target %.2f achieved only %.3f", row.Target, row.Metrics.Spec)
			}
		case "PVN":
			if row.Metrics.PVN < row.Target-0.15 {
				t.Errorf("PVN target %.2f achieved only %.3f", row.Target, row.Metrics.PVN)
			}
		}
	}
	// Raising the SPEC target must raise achieved SPEC monotonically.
	var prev float64 = -1
	for _, row := range r.Rows {
		if row.Goal != "SPEC" {
			continue
		}
		if row.Metrics.Spec < prev-0.01 {
			t.Error("achieved SPEC not monotone in target")
		}
		prev = row.Metrics.Spec
	}
	if !strings.Contains(r.Render(), "target") {
		t.Error("render incomplete")
	}
}

func TestMetricsCmpInversion(t *testing.T) {
	r, err := MetricsCmp(tp())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// The §2.1 argument must be demonstrable: some pair ranks opposite
	// under the Jacobsen rate vs under SPEC.
	if _, _, ok := r.RankInversion(); !ok {
		t.Error("no rank inversion found; §2.1 demonstration failed")
	}
	// The Wilson intervals must bracket the point PVNs... of the summed
	// quadrants; at minimum they must be proper intervals.
	for _, row := range r.Rows {
		if row.PVNLo > row.PVNHi || row.PVNLo < 0 || row.PVNHi > 1 {
			t.Errorf("%s: bad PVN interval [%v,%v]", row.Estimator, row.PVNLo, row.PVNHi)
		}
	}
	if !strings.Contains(r.Render(), "jacobsen") {
		t.Error("render incomplete")
	}
}

func TestAblationDepth(t *testing.T) {
	p := tp()
	p.MaxCommitted = 60_000
	r, err := AblationDepth(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Deeper resolution => more wrong-path work, monotonic.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].Ratio < r.Rows[i-1].Ratio-0.01 {
			t.Errorf("ratio not increasing with depth: %v", r.Rows)
		}
	}
	// Deeper resolution => slower machine.
	if r.Rows[len(r.Rows)-1].IPC >= r.Rows[0].IPC {
		t.Error("IPC should fall with depth")
	}
	// Deeper resolution => staler SAg history => worse SAg.
	if r.Rows[len(r.Rows)-1].MispSAg <= r.Rows[0].MispSAg {
		t.Error("SAg should degrade with depth (non-speculative update)")
	}
	// Gshare (speculative update with repair) stays depth-stable.
	if d := r.Rows[len(r.Rows)-1].MispGshare - r.Rows[0].MispGshare; d > 0.02 || d < -0.02 {
		t.Errorf("gshare misprediction moved %.3f with depth; should be stable", d)
	}
	if !strings.Contains(r.Render(), "depth") {
		t.Error("render incomplete")
	}
}

func TestPatternsDominance(t *testing.T) {
	r, err := Patterns(tp())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	var gshare, sag PatternsRow
	for _, row := range r.Rows {
		if row.Predictor == "gshare" {
			gshare = row
		} else {
			sag = row
		}
	}
	// §3.2: per-branch histories concentrate; global histories spread.
	if sag.Coverage8 <= gshare.Coverage8 {
		t.Errorf("SAg top-8 coverage %.3f should exceed gshare %.3f",
			sag.Coverage8, gshare.Coverage8)
	}
	// (Distinct-pattern *counts* are not the claim — SAg's per-branch
	// space can hold more patterns than a structured global register —
	// concentration is: the top few patterns must cover far more.)
	// The Lick set covers far more branches under SAg.
	if sag.LickCoverage <= gshare.LickCoverage+0.1 {
		t.Errorf("Lick coverage should jump on SAg: gshare %.3f, sag %.3f",
			gshare.LickCoverage, sag.LickCoverage)
	}
	if !strings.Contains(r.Render(), "lick-cov") {
		t.Error("render incomplete")
	}
}

func TestSMTStudy(t *testing.T) {
	p := tp()
	r, err := SMTStudy(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// The predictable+hostile mix must show a positive confidence gain.
	for _, row := range r.Rows {
		if row.Mix == "m88ksim+go" && row.Gain <= 0 {
			t.Errorf("m88ksim+go confidence gain %.3f, want > 0", row.Gain)
		}
		if row.RoundRobin <= 0 || row.Confidence <= 0 {
			t.Errorf("%s: zero throughput", row.Mix)
		}
	}
	if !strings.Contains(r.Render(), "confidence") {
		t.Error("render incomplete")
	}
}

func TestEagerStudy(t *testing.T) {
	r, err := EagerStudy(tp())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Rows are sorted by saving; the top row must beat fork-always.
	var top, forkAll EagerRow
	top = r.Rows[0]
	for _, row := range r.Rows {
		if row.Estimator == "fork-always" {
			forkAll = row
		}
	}
	if top.Saved <= forkAll.Saved {
		t.Error("a confidence-directed policy should beat forking on everything")
	}
	if !strings.Contains(r.Render(), "saved/1k") {
		t.Error("render incomplete")
	}
}

func TestXInput(t *testing.T) {
	r, err := XInput(tp())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Both estimators must be non-degenerate.
		if row.Self.PVP == 0 || row.Cross.PVP == 0 {
			t.Errorf("%s: degenerate metrics", row.Name)
		}
		// m88ksim has no data randomness: self and cross must coincide.
		if row.Name == "m88ksim" {
			if d := row.Self.PVP - row.Cross.PVP; d > 0.01 || d < -0.01 {
				t.Errorf("m88ksim self/cross should coincide: %.3f vs %.3f",
					row.Self.PVP, row.Cross.PVP)
			}
		}
	}
	// Self-profiling is a best case: on the suite mean, cross-input
	// training should not *beat* it by more than noise.
	if d := r.MeanDeltaPVP(); d < -0.02 {
		t.Errorf("cross-input PVP beats self-profiled by %.3f; implausible", -d)
	}
	if !strings.Contains(r.Render(), "cross-input") {
		t.Error("render incomplete")
	}
}

func TestAUCStudy(t *testing.T) {
	r, err := AUCStudy(tp())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	jrs, _ := r.Find("JRS (4096x4)")
	gmdc, _ := r.Find("gMDC-CIR (64x16)")
	dist, _ := r.Find("Distance")
	for _, row := range r.Rows {
		if row.AUC <= 0.5 || row.AUC >= 1.0 {
			t.Errorf("%s AUC %.3f outside (0.5, 1)", row.Family, row.AUC)
		}
	}
	// Matched-index JRS must dominate both cheap designs overall.
	if jrs.AUC <= gmdc.AUC || jrs.AUC <= dist.AUC {
		t.Errorf("JRS AUC %.3f should exceed gMDC %.3f and Distance %.3f",
			jrs.AUC, gmdc.AUC, dist.AUC)
	}
	if !strings.Contains(r.Render(), "auc") {
		t.Error("render incomplete")
	}
}

func TestTable2RenderDetailed(t *testing.T) {
	r := getTable2(t)
	out := r.RenderDetailed()
	// Every benchmark appears per (estimator, predictor) block.
	for _, name := range []string{"compress", "ijpeg", "go"} {
		if !strings.Contains(out, name) {
			t.Errorf("detailed render missing %s", name)
		}
	}
	if !strings.Contains(out, "JRS(>=15) on sag") {
		t.Error("detailed render missing block headers")
	}
}
