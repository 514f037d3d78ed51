package experiments

import (
	"fmt"
	"strings"

	"specctrl/internal/conf"
	"specctrl/internal/metrics"
	"specctrl/internal/workload"
)

// MetricsCmpRow carries one estimator's paper metrics alongside the
// Jacobsen et al metrics the paper argues against (§2.1).
type MetricsCmpRow struct {
	Estimator string
	Paper     metrics.Metrics
	Jacobsen  float64 // confidence misprediction rate (lower is better)
	Coverage  float64
	// PVN 95% Wilson interval, showing the measurement resolution.
	PVNLo, PVNHi float64
}

// MetricsCmpResult reproduces the paper's §2.1 argument as data: ranking
// estimators by the single "confidence misprediction rate" picks a
// different winner than ranking by the metric an actual application
// needs (SPEC for speculation control), because the combined rate mixes
// the two error types that different applications weigh differently.
type MetricsCmpResult struct {
	Rows []MetricsCmpRow
}

// MetricsCmp measures a spread of JRS thresholds plus the saturating
// counters estimator under gshare and tabulates both metric families.
func MetricsCmp(p Params) (*MetricsCmpResult, error) {
	mk := func() []conf.Estimator {
		return []conf.Estimator{
			conf.NewJRS(conf.JRSConfig{Entries: 4096, Bits: 4, Threshold: 1, Enhanced: true}),
			conf.NewJRS(conf.JRSConfig{Entries: 4096, Bits: 4, Threshold: 7, Enhanced: true}),
			conf.NewJRS(conf.JRSConfig{Entries: 4096, Bits: 4, Threshold: 15, Enhanced: true}),
			conf.SatCounters{},
		}
	}
	names := []string{"JRS t=1", "JRS t=7", "JRS t=15", "SatCnt"}
	perEst := make([]metrics.Quadrant, len(names))
	perApp := make([][]metrics.Quadrant, len(names))
	stats, err := p.suiteStats("metrics", GshareSpec(), "main",
		func(_ Params, _ workload.Workload) ([]conf.Estimator, error) { return mk(), nil })
	if err != nil {
		return nil, err
	}
	for _, st := range stats {
		for i := range names {
			perEst[i].Add(st.Confidence[i].CommittedQ)
			perApp[i] = append(perApp[i], st.Confidence[i].CommittedQ)
		}
	}
	res := &MetricsCmpResult{}
	for i, n := range names {
		q := perEst[i]
		lo, hi := q.PVNInterval(1.96)
		res.Rows = append(res.Rows, MetricsCmpRow{
			Estimator: n,
			Paper:     metrics.AggregateNormalized(perApp[i]).Compute(),
			Jacobsen:  q.JacobsenMisestimateRate(),
			Coverage:  q.JacobsenCoverage(),
			PVNLo:     lo,
			PVNHi:     hi,
		})
	}
	return res, nil
}

// Find returns the named row.
func (r *MetricsCmpResult) Find(name string) (MetricsCmpRow, bool) {
	for _, row := range r.Rows {
		if row.Estimator == name {
			return row, true
		}
	}
	return MetricsCmpRow{}, false
}

// RankInversion reports whether the Jacobsen rate and SPEC rank any pair
// of estimators in opposite orders — the §2.1 complaint made concrete.
func (r *MetricsCmpResult) RankInversion() (a, b string, found bool) {
	for i := range r.Rows {
		for j := range r.Rows {
			ri, rj := r.Rows[i], r.Rows[j]
			if ri.Jacobsen < rj.Jacobsen && ri.Paper.Spec < rj.Paper.Spec {
				return ri.Estimator, rj.Estimator, true
			}
		}
	}
	return "", "", false
}

// Render prints the comparison and calls out the inversion.
func (r *MetricsCmpResult) Render() string {
	var b strings.Builder
	b.WriteString(header("Metrics comparison (§2.1): paper metrics vs Jacobsen misestimate rate"))
	fmt.Fprintf(&b, "%-10s %5s %5s %5s %5s | %8s %8s | %s\n",
		"estimator", "sens", "spec", "pvp", "pvn", "jacobsen", "coverage", "pvn 95% ci")
	for _, row := range r.Rows {
		m := row.Paper
		fmt.Fprintf(&b, "%-10s %s %s %s %s | %7.1f%% %7.1f%% | [%4.1f%%, %4.1f%%]\n",
			row.Estimator, pct(m.Sens), pct(m.Spec), pct(m.PVP), pct(m.PVN),
			row.Jacobsen*100, row.Coverage*100, row.PVNLo*100, row.PVNHi*100)
	}
	if a, bb, ok := r.RankInversion(); ok {
		fmt.Fprintf(&b, "rank inversion: %q beats %q on the Jacobsen rate but loses on SPEC —\n", a, bb)
		b.WriteString("a speculation-control design chosen by the old metric would be the wrong one.\n")
	}
	return b.String()
}
