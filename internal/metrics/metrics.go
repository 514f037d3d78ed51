// Package metrics implements the paper's diagnostic-test framework for
// comparing confidence estimators (§1.1–§2.1).
//
// Every (branch prediction, confidence estimate) pair falls into one
// quadrant of a 2×2 table: the prediction was Correct or Incorrect, and
// the estimator said High Confidence or Low Confidence. From the quadrant
// counts the four "higher is better" metrics follow:
//
//	SENS = P[HC|C] = Chc / (Chc + Clc)   sensitivity
//	SPEC = P[LC|I] = Ilc / (Ihc + Ilc)   specificity
//	PVP  = P[C|HC] = Chc / (Chc + Ihc)   predictive value of a positive test
//	PVN  = P[I|LC] = Ilc / (Clc + Ilc)   predictive value of a negative test
//
// The package also provides the Jacobsen et al metrics (confidence
// misprediction rate and coverage) for comparison, the analytic identities
// relating PVP/PVN to SENS/SPEC/accuracy that generate the paper's
// Figure 1, and the paper's aggregation rule: suite-level metrics are
// recomputed from summed quadrants, never averaged from ratios.
package metrics

import "fmt"

// Quadrant holds the four outcome counts for one (predictor, estimator,
// workload) measurement.
type Quadrant struct {
	Chc uint64 // correctly predicted, estimated high confidence
	Ihc uint64 // incorrectly predicted, estimated high confidence
	Clc uint64 // correctly predicted, estimated low confidence
	Ilc uint64 // incorrectly predicted, estimated low confidence
}

// Record adds one event.
func (q *Quadrant) Record(correct, highConfidence bool) {
	switch {
	case correct && highConfidence:
		q.Chc++
	case !correct && highConfidence:
		q.Ihc++
	case correct && !highConfidence:
		q.Clc++
	default:
		q.Ilc++
	}
}

// Add accumulates another quadrant into q.
func (q *Quadrant) Add(o Quadrant) {
	q.Chc += o.Chc
	q.Ihc += o.Ihc
	q.Clc += o.Clc
	q.Ilc += o.Ilc
}

// Total returns the number of events recorded.
func (q Quadrant) Total() uint64 { return q.Chc + q.Ihc + q.Clc + q.Ilc }

// Correct returns the number of correctly predicted branches.
func (q Quadrant) Correct() uint64 { return q.Chc + q.Clc }

// Incorrect returns the number of mispredicted branches.
func (q Quadrant) Incorrect() uint64 { return q.Ihc + q.Ilc }

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Accuracy returns the branch prediction accuracy P[C].
func (q Quadrant) Accuracy() float64 { return ratio(q.Correct(), q.Total()) }

// MispredictRate returns P[I] = 1 - accuracy.
func (q Quadrant) MispredictRate() float64 { return ratio(q.Incorrect(), q.Total()) }

// Sens returns the sensitivity P[HC|C]: the fraction of correct
// predictions identified as high confidence.
func (q Quadrant) Sens() float64 { return ratio(q.Chc, q.Chc+q.Clc) }

// Spec returns the specificity P[LC|I]: the fraction of incorrect
// predictions identified as low confidence.
func (q Quadrant) Spec() float64 { return ratio(q.Ilc, q.Ihc+q.Ilc) }

// PVP returns P[C|HC]: the probability that a high-confidence estimate is
// correct.
func (q Quadrant) PVP() float64 { return ratio(q.Chc, q.Chc+q.Ihc) }

// PVN returns P[I|LC]: the probability that a low-confidence estimate is
// correct (i.e. the branch really is mispredicted).
func (q Quadrant) PVN() float64 { return ratio(q.Ilc, q.Clc+q.Ilc) }

// JacobsenMisestimateRate returns the fraction of events where the
// estimator disagreed with the eventual outcome (Ihc + Clc over all), the
// "confidence misprediction rate" of Jacobsen et al.
func (q Quadrant) JacobsenMisestimateRate() float64 {
	return ratio(q.Ihc+q.Clc, q.Total())
}

// JacobsenCoverage returns the fraction of events estimated low
// confidence, the "coverage" of Jacobsen et al.
func (q Quadrant) JacobsenCoverage() float64 {
	return ratio(q.Clc+q.Ilc, q.Total())
}

// Metrics bundles the four paper metrics plus accuracy for reporting.
type Metrics struct {
	Sens, Spec, PVP, PVN, Accuracy float64
}

// Compute returns all metrics of the quadrant.
func (q Quadrant) Compute() Metrics {
	return Metrics{
		Sens:     q.Sens(),
		Spec:     q.Spec(),
		PVP:      q.PVP(),
		PVN:      q.PVN(),
		Accuracy: q.Accuracy(),
	}
}

// String renders the metrics as the paper's percentage columns.
func (m Metrics) String() string {
	return fmt.Sprintf("sens=%3.0f%% spec=%3.0f%% pvp=%3.0f%% pvn=%3.0f%%",
		m.Sens*100, m.Spec*100, m.PVP*100, m.PVN*100)
}

// Aggregate sums per-benchmark quadrants and returns the combined table.
// This implements the paper's rule (§3.2): "when computing the average for
// the PVP, we take the mean for Chc and Clc and compute Chc/(Chc+Clc),
// rather than averaging the existing PVPs". Summing and re-deriving the
// ratio is equivalent to taking the mean of each quadrant first.
func Aggregate(qs []Quadrant) Quadrant {
	var sum Quadrant
	for _, q := range qs {
		sum.Add(q)
	}
	return sum
}

// AggregateNormalized aggregates after normalizing every benchmark's
// quadrants to sum to one, so each benchmark contributes equal weight
// regardless of its branch count. It returns the four normalized quadrant
// fractions as a NormalizedQuadrant.
func AggregateNormalized(qs []Quadrant) NormalizedQuadrant {
	var sum NormalizedQuadrant
	n := 0
	for _, q := range qs {
		t := q.Total()
		if t == 0 {
			continue
		}
		sum.Chc += float64(q.Chc) / float64(t)
		sum.Ihc += float64(q.Ihc) / float64(t)
		sum.Clc += float64(q.Clc) / float64(t)
		sum.Ilc += float64(q.Ilc) / float64(t)
		n++
	}
	if n > 0 {
		sum.Chc /= float64(n)
		sum.Ihc /= float64(n)
		sum.Clc /= float64(n)
		sum.Ilc /= float64(n)
	}
	return sum
}

// NormalizedQuadrant is a quadrant table of fractions summing to one.
type NormalizedQuadrant struct {
	Chc, Ihc, Clc, Ilc float64
}

func fratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Compute returns the metrics of the normalized table.
func (q NormalizedQuadrant) Compute() Metrics {
	return Metrics{
		Sens:     fratio(q.Chc, q.Chc+q.Clc),
		Spec:     fratio(q.Ilc, q.Ihc+q.Ilc),
		PVP:      fratio(q.Chc, q.Chc+q.Ihc),
		PVN:      fratio(q.Ilc, q.Clc+q.Ilc),
		Accuracy: q.Chc + q.Clc,
	}
}

// AnalyticPVP returns the PVP implied by a given sensitivity, specificity
// and prediction accuracy p, via Bayes' rule:
//
//	PVP = SENS·p / (SENS·p + (1-SPEC)·(1-p))
//
// This is the identity behind the paper's Figure 1.
func AnalyticPVP(sens, spec, p float64) float64 {
	return fratio(sens*p, sens*p+(1-spec)*(1-p))
}

// AnalyticPVN returns the PVN implied by a given sensitivity, specificity
// and prediction accuracy p:
//
//	PVN = SPEC·(1-p) / (SPEC·(1-p) + (1-SENS)·p)
func AnalyticPVN(sens, spec, p float64) float64 {
	return fratio(spec*(1-p), spec*(1-p)+(1-sens)*p)
}

// BoostedPVN returns the Bernoulli-trial approximation of the PVN of k
// consecutive low-confidence events (§4.2): the probability that at least
// one of the k estimates flags a real misprediction,
// 1 - (1-PVN)^k.
func BoostedPVN(pvn float64, k int) float64 {
	q := 1.0
	for i := 0; i < k; i++ {
		q *= 1 - pvn
	}
	return 1 - q
}

// WilsonInterval returns the Wilson score interval for a binomial
// proportion: the range within which the true rate behind
// successes/total lies with the confidence implied by z (1.96 ≈ 95%).
// Simulation-derived metrics such as PVN are proportions over finite
// branch counts; the interval says how many digits of a reported
// percentage are real.
func WilsonInterval(successes, total uint64, z float64) (lo, hi float64) {
	if total == 0 {
		return 0, 1
	}
	n := float64(total)
	p := float64(successes) / n
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	margin := z / denom * sqrt(p*(1-p)/n+z2/(4*n*n))
	lo, hi = center-margin, center+margin
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// sqrt avoids importing math for one call site; Newton iterations are
// exact enough for interval reporting.
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	g := x
	for i := 0; i < 40; i++ {
		g = (g + x/g) / 2
	}
	return g
}

// PVNInterval returns the Wilson interval of the quadrant's PVN.
func (q Quadrant) PVNInterval(z float64) (lo, hi float64) {
	return WilsonInterval(q.Ilc, q.Clc+q.Ilc, z)
}

// ROCPoint is one operating point of an estimator sweep in ROC space:
// x = 1-SPEC (incorrect branches wrongly called high confidence),
// y = SENS (correct branches rightly called high confidence).
type ROCPoint struct {
	FPR float64 // 1 - SPEC
	TPR float64 // SENS
}

// ROCFromQuadrant converts one quadrant to its ROC point.
func ROCFromQuadrant(q Quadrant) ROCPoint {
	return ROCPoint{FPR: 1 - q.Spec(), TPR: q.Sens()}
}

// AUC returns the area under the ROC curve built from the sweep points,
// closed with the (0,0) and (1,1) corners, using the trapezoid rule.
// It is a threshold-independent single-number comparison of estimator
// families: 0.5 is chance, 1.0 is a perfect separator of correct from
// incorrect predictions.
func AUC(points []ROCPoint) float64 {
	pts := make([]ROCPoint, 0, len(points)+2)
	pts = append(pts, ROCPoint{0, 0})
	pts = append(pts, points...)
	pts = append(pts, ROCPoint{1, 1})
	sortROC(pts)
	area := 0.0
	for i := 1; i < len(pts); i++ {
		dx := pts[i].FPR - pts[i-1].FPR
		area += dx * (pts[i].TPR + pts[i-1].TPR) / 2
	}
	return area
}

// sortROC orders points by FPR then TPR (insertion sort: sweeps are
// tiny and this avoids an import).
func sortROC(pts []ROCPoint) {
	for i := 1; i < len(pts); i++ {
		for j := i; j > 0; j-- {
			a, b := pts[j-1], pts[j]
			if b.FPR < a.FPR || (b.FPR == a.FPR && b.TPR < a.TPR) {
				pts[j-1], pts[j] = b, a
			} else {
				break
			}
		}
	}
}
