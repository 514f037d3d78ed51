package experiments

import (
	"fmt"
	"strings"

	"specctrl/internal/pipeline"
	"specctrl/internal/plot"
)

// DistanceView selects which of the four misprediction-distance
// statistics a curve shows.
type DistanceView int

// Views: precise distances reset when a mispredicted branch is fetched
// (Figures 6 and 7); perceived distances reset when the misprediction is
// detected at resolution (Figures 8 and 9).
const (
	PreciseAll DistanceView = iota
	PreciseCommitted
	PerceivedAll
	PerceivedCommitted
)

// String names the view.
func (v DistanceView) String() string {
	switch v {
	case PreciseAll:
		return "precise/all"
	case PreciseCommitted:
		return "precise/committed"
	case PerceivedAll:
		return "perceived/all"
	default:
		return "perceived/committed"
	}
}

// DistanceCurve is the misprediction rate as a function of the distance
// (in branches) from the previous misprediction, plus the flat average
// the paper draws for reference.
type DistanceCurve struct {
	View    DistanceView
	Rate    []float64 // index = distance, starting at 1
	Count   []uint64  // branches observed at each distance
	Average float64   // overall misprediction rate for this view
}

// FigDistanceResult reproduces one of Figures 6-9: both the all-branch
// and committed-branch curves for one predictor and one reset model.
type FigDistanceResult struct {
	Predictor string
	Perceived bool
	All       DistanceCurve
	Committed DistanceCurve
}

// maxPlotDistance bounds the rendered distance axis, as in the figures.
const maxPlotDistance = 32

func curveFrom(view DistanceView, h *pipeline.DistanceHist, avg float64) DistanceCurve {
	c := DistanceCurve{View: view, Average: avg}
	for d := 1; d <= maxPlotDistance; d++ {
		c.Rate = append(c.Rate, h.Rate(d))
		c.Count = append(c.Count, h.Total[d])
	}
	return c
}

// FigDistance runs the suite on the given predictor and accumulates the
// distance histograms. perceived selects the resolution-time reset model
// (Figures 8/9) instead of the oracle fetch-time model (Figures 6/7).
func FigDistance(p Params, spec PredictorSpec, perceived bool) (*FigDistanceResult, error) {
	// The same simulation feeds both reset models (precise and
	// perceived histograms are collected together), so the cells are
	// keyed "figdist" without a perceived marker: a merged cell dump
	// renders Figures 6-9 from one suite of runs per predictor.
	stats, err := p.estimatorGrid(suiteSpecs("figdist", spec, "main"), noEstimators)
	if err != nil {
		return nil, err
	}
	var all, committed pipeline.DistanceHist
	var allBr, allMisp, commBr, commMisp uint64
	for _, st := range stats {
		var srcAll, srcComm *pipeline.DistanceHist
		if perceived {
			srcAll, srcComm = &st.PerceivedAll, &st.PerceivedCommitted
		} else {
			srcAll, srcComm = &st.PreciseAll, &st.PreciseCommitted
		}
		for d := 0; d < pipeline.DistanceBuckets; d++ {
			all.Total[d] += srcAll.Total[d]
			all.Mispredict[d] += srcAll.Mispredict[d]
			committed.Total[d] += srcComm.Total[d]
			committed.Mispredict[d] += srcComm.Mispredict[d]
		}
		allBr += st.AllBr
		allMisp += st.AllQ.Incorrect()
		commBr += st.CommittedBr
		commMisp += st.CommittedQ.Incorrect()
	}
	viewAll, viewComm := PreciseAll, PreciseCommitted
	if perceived {
		viewAll, viewComm = PerceivedAll, PerceivedCommitted
	}
	return &FigDistanceResult{
		Predictor: spec.Name,
		Perceived: perceived,
		All:       curveFrom(viewAll, &all, float64(allMisp)/float64(allBr)),
		Committed: curveFrom(viewComm, &committed, float64(commMisp)/float64(commBr)),
	}, nil
}

// Render prints both curves with the average reference lines.
func (r *FigDistanceResult) Render() string {
	var b strings.Builder
	model := "precise (Figures 6/7)"
	if r.Perceived {
		model = "perceived (Figures 8/9)"
	}
	b.WriteString(header(fmt.Sprintf("Misprediction distance, %s, %s predictor", model, r.Predictor)))
	fmt.Fprintf(&b, "%4s | %-9s (avg %s) | %-9s (avg %s)\n", "dist",
		"all br", pct1(r.All.Average), "committed", pct1(r.Committed.Average))
	for d := 1; d <= maxPlotDistance; d++ {
		fmt.Fprintf(&b, "%4d | %s  n=%-9d | %s  n=%-9d\n", d,
			pct1(r.All.Rate[d-1]), r.All.Count[d-1],
			pct1(r.Committed.Rate[d-1]), r.Committed.Count[d-1])
	}
	b.WriteString("\n")
	avgLine := make([]float64, maxPlotDistance)
	for i := range avgLine {
		avgLine[i] = r.All.Average
	}
	cfg := plot.DefaultConfig()
	cfg.XLabel = "branches since previous misprediction"
	cfg.YFormat = "%.2f"
	cfg.YMin, cfg.YMax = 0, ceil10(maxRate(r.All.Rate, r.Committed.Rate))
	b.WriteString(plot.Render(cfg,
		plot.Series{Name: "all branches", Mark: '*', Values: r.All.Rate},
		plot.Series{Name: "committed branches", Mark: 'o', Values: r.Committed.Rate},
		plot.Series{Name: "average (all)", Mark: '-', Values: avgLine},
	))
	return b.String()
}

// maxRate returns the maximum value across the rate slices.
func maxRate(slices ...[]float64) float64 {
	m := 0.0
	for _, s := range slices {
		for _, v := range s {
			if v > m {
				m = v
			}
		}
	}
	return m
}

// ceil10 rounds up to the next 0.1 step for a stable chart ceiling.
func ceil10(v float64) float64 {
	steps := int(v*10) + 1
	return float64(steps) / 10
}
