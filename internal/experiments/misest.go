package experiments

import (
	"fmt"
	"strings"

	"specctrl/internal/conf"
	"specctrl/internal/pipeline"
	"specctrl/internal/runner"
	"specctrl/internal/workload"
)

// MisestRow is one (estimator, predictor) mis-estimation clustering
// measurement (§4.1 closing paragraphs): the rate at which the confidence
// estimate disagrees with the branch outcome, as a function of distance
// since the previous disagreement.
type MisestRow struct {
	Estimator string
	Predictor string
	// Rate[d-1] is the mis-estimation rate at distance d (committed
	// branches since the last mis-estimation).
	Rate    []float64
	Average float64
}

// MisestResult holds the clustering measurements for the configurations
// the paper reports: JRS under gshare and McFarling, saturating counters
// under McFarling.
type MisestResult struct {
	Rows    []MisestRow
	MaxDist int
}

// misestEstimators builds one cell's estimator under test, selected by
// the spec variant.
func misestEstimators(_ Params, _ workload.Workload, spec PredictorSpec, variant string) ([]conf.Estimator, error) {
	switch variant {
	case "jrs":
		return []conf.Estimator{conf.NewJRS(conf.DefaultJRS)}, nil
	case "satcnt":
		return []conf.Estimator{SatCntFor(spec, conf.BothStrong)}, nil
	}
	return nil, fmt.Errorf("misest: unknown variant %q", variant)
}

// Misest measures confidence mis-estimation clustering over the suite.
func Misest(p Params) (*MisestResult, error) {
	const maxDist = 16
	type cfgT struct {
		spec    PredictorSpec
		variant string
		name    string
	}
	cfgs := []cfgT{
		{GshareSpec(), "jrs", "JRS"},
		{McFarlingSpec(), "jrs", "JRS"},
		{McFarlingSpec(), "satcnt", "SatCnt"},
	}
	var gridSpecs []runner.Spec
	for _, c := range cfgs {
		for _, w := range suite() {
			gridSpecs = append(gridSpecs, runner.Spec{
				Experiment: "misest", Workload: w.Name, Predictor: c.spec.Name, Variant: c.variant,
			})
		}
	}
	stats, err := p.estimatorGrid(gridSpecs, misestEstimators)
	if err != nil {
		return nil, err
	}
	res := &MisestResult{MaxDist: maxDist}
	i := 0
	for _, c := range cfgs {
		var hist pipeline.DistanceHist
		var total, mis uint64
		for range suite() {
			st := stats[i]
			i++
			h := &st.Confidence[0].MisestCommitted
			for d := 0; d < pipeline.DistanceBuckets; d++ {
				hist.Total[d] += h.Total[d]
				hist.Mispredict[d] += h.Mispredict[d]
				total += h.Total[d]
				mis += h.Mispredict[d]
			}
		}
		row := MisestRow{Estimator: c.name, Predictor: c.spec.Name,
			Average: float64(mis) / float64(total)}
		for d := 1; d <= maxDist; d++ {
			row.Rate = append(row.Rate, hist.Rate(d))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the clustering table.
func (r *MisestResult) Render() string {
	var b strings.Builder
	b.WriteString(header("Mis-estimation clustering (§4.1): error rate vs distance since last error"))
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s on %s (avg %s)\n", row.Estimator, row.Predictor, pct1(row.Average))
		for d, rate := range row.Rate {
			fmt.Fprintf(&b, "  d=%-3d %s\n", d+1, pct1(rate))
		}
	}
	return b.String()
}
