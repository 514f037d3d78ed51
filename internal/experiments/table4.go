package experiments

import (
	"fmt"
	"strings"

	"specctrl/internal/conf"
	"specctrl/internal/metrics"
	"specctrl/internal/runner"
	"specctrl/internal/workload"
)

// Table4Row is one (estimator, predictor) suite-mean row of the paper's
// Table 4, which positions the misprediction-distance estimator against
// JRS, saturating counters and static profiling.
type Table4Row struct {
	Estimator string
	Threshold string
	Predictor string
	Metrics   metrics.Metrics
}

// Table4Result is the full table.
type Table4Result struct {
	Rows []Table4Row
}

// table4DistMax is the largest distance threshold in the table.
const table4DistMax = 7

// table4Estimators builds one (workload, predictor) cell's estimators.
// Gshare and McFarling cells carry the full battery (JRS, saturating
// counters, static, distance 1..7); the SAg cell carries the
// history-pattern reference estimator alone.
func table4Estimators(p Params, w workload.Workload, spec PredictorSpec, _ string) ([]conf.Estimator, error) {
	if spec.Name == "sag" {
		return []conf.Estimator{conf.NewPatternHistory(spec.HistBits(p))}, nil
	}
	static, err := p.staticFor(w, spec)
	if err != nil {
		return nil, fmt.Errorf("table4 static %s/%s: %w", w.Name, spec.Name, err)
	}
	ests := []conf.Estimator{
		conf.NewJRS(conf.JRSConfig{Entries: 4096, Bits: 4, Threshold: 15, Enhanced: true}),
		SatCntFor(spec, conf.BothStrong),
		static,
	}
	for d := 1; d <= table4DistMax; d++ {
		ests = append(ests, conf.NewDistance(d))
	}
	return ests, nil
}

// Table4 runs, per workload, one gshare cell and one McFarling cell
// carrying every estimator in the table (JRS, saturating counters,
// distance thresholds 1..7), plus the static profiling pass, plus a SAg
// cell for the history-pattern reference row.
func Table4(p Params) (*Table4Result, error) {
	const distMax = table4DistMax
	type key struct{ est, pred string }
	perApp := map[key][]metrics.Quadrant{}
	rowOrder := []key{}
	addQ := func(k key, q metrics.Quadrant) {
		if _, seen := perApp[k]; !seen {
			rowOrder = append(rowOrder, k)
		}
		perApp[k] = append(perApp[k], q)
	}

	// One cell per (workload, predictor): gshare and McFarling cells
	// carry the full estimator battery; the SAg cell carries the
	// history-pattern reference estimator.
	var gridSpecs []runner.Spec
	for _, w := range suite() {
		for _, spec := range []PredictorSpec{GshareSpec(), McFarlingSpec(), SAgSpec()} {
			gridSpecs = append(gridSpecs, runner.Spec{
				Experiment: "table4", Workload: w.Name, Predictor: spec.Name, Variant: "main",
			})
		}
	}
	stats, err := p.estimatorGrid(gridSpecs, table4Estimators)
	if err != nil {
		return nil, err
	}
	i := 0
	for range suite() {
		for _, spec := range []PredictorSpec{GshareSpec(), McFarlingSpec()} {
			st := stats[i]
			i++
			names := []key{
				{"JRS >=15", spec.Name},
				{"Satur. Cntrs", spec.Name},
				{"Static >90%", spec.Name},
			}
			for d := 1; d <= distMax; d++ {
				names = append(names, key{fmt.Sprintf("Distance >%d", d), spec.Name})
			}
			for e, k := range names {
				addQ(k, st.Confidence[e].CommittedQ)
			}
		}
		addQ(key{"Hist. Pattern", "sag"}, stats[i].Confidence[0].CommittedQ)
		i++
	}

	res := &Table4Result{}
	for _, k := range rowOrder {
		res.Rows = append(res.Rows, Table4Row{
			Estimator: k.est,
			Predictor: k.pred,
			Metrics:   metrics.AggregateNormalized(perApp[k]).Compute(),
		})
	}
	return res, nil
}

// Find returns the row for the given estimator label and predictor.
func (r *Table4Result) Find(estimator, predictor string) (Table4Row, bool) {
	for _, row := range r.Rows {
		if row.Estimator == estimator && row.Predictor == predictor {
			return row, true
		}
	}
	return Table4Row{}, false
}

// Render produces the paper-style text table.
func (r *Table4Result) Render() string {
	var b strings.Builder
	b.WriteString(header("Table 4: misprediction distance as confidence estimator (suite means)"))
	fmt.Fprintf(&b, "%-14s %-10s %5s %5s %5s %5s\n",
		"estimator", "predictor", "sens", "spec", "pvp", "pvn")
	for _, row := range r.Rows {
		m := row.Metrics
		fmt.Fprintf(&b, "%-14s %-10s %s %s %s %s\n",
			row.Estimator, row.Predictor, pct(m.Sens), pct(m.Spec), pct(m.PVP), pct(m.PVN))
	}
	return b.String()
}
