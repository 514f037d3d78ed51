package experiments

import (
	"fmt"
	"strings"

	"specctrl/internal/conf"
	"specctrl/internal/metrics"
	"specctrl/internal/workload"
)

// Table3Row is one benchmark's comparison of the two McFarling
// saturating-counter variants (paper Table 3).
type Table3Row struct {
	Name   string
	Both   metrics.Metrics
	Either metrics.Metrics
	BothQ  metrics.Quadrant
	EithQ  metrics.Quadrant
}

// Table3Result reproduces the paper's Table 3: Both-Strong vs
// Either-Strong per application under the McFarling predictor.
type Table3Result struct {
	Rows []Table3Row
}

// Table3 runs one McFarling cell per workload with both variants
// attached.
func Table3(p Params) (*Table3Result, error) {
	stats, err := p.suiteStats("table3", McFarlingSpec(), "main",
		func(_ Params, _ workload.Workload) ([]conf.Estimator, error) {
			return []conf.Estimator{
				conf.SatCountersMcFarling{Variant: conf.BothStrong},
				conf.SatCountersMcFarling{Variant: conf.EitherStrong},
			}, nil
		})
	if err != nil {
		return nil, err
	}
	res := &Table3Result{}
	for i, w := range suite() {
		st := stats[i]
		res.Rows = append(res.Rows, Table3Row{
			Name:   w.Name,
			Both:   st.Confidence[0].CommittedQ.Compute(),
			Either: st.Confidence[1].CommittedQ.Compute(),
			BothQ:  st.Confidence[0].CommittedQ,
			EithQ:  st.Confidence[1].CommittedQ,
		})
	}
	return res, nil
}

// Mean returns the suite means computed with the paper's aggregation
// rule (normalized quadrants, ratios recomputed).
func (r *Table3Result) Mean() (both, either metrics.Metrics) {
	var bq, eq []metrics.Quadrant
	for _, row := range r.Rows {
		bq = append(bq, row.BothQ)
		eq = append(eq, row.EithQ)
	}
	return metrics.AggregateNormalized(bq).Compute(), metrics.AggregateNormalized(eq).Compute()
}

// Render produces the paper-style text table.
func (r *Table3Result) Render() string {
	var b strings.Builder
	b.WriteString(header("Table 3: Both-Strong vs Either-Strong (McFarling predictor)"))
	fmt.Fprintf(&b, "%-9s | %-24s | %-24s\n", "", "Both Strong", "Either Strong")
	fmt.Fprintf(&b, "%-9s | %4s %4s %4s %4s | %4s %4s %4s %4s\n",
		"app", "sens", "spec", "pvp", "pvn", "sens", "spec", "pvp", "pvn")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-9s | %s %s %s %s | %s %s %s %s\n", row.Name,
			pct(row.Both.Sens), pct(row.Both.Spec), pct(row.Both.PVP), pct(row.Both.PVN),
			pct(row.Either.Sens), pct(row.Either.Spec), pct(row.Either.PVP), pct(row.Either.PVN))
	}
	mb, me := r.Mean()
	fmt.Fprintf(&b, "%-9s | %s %s %s %s | %s %s %s %s\n", "mean",
		pct(mb.Sens), pct(mb.Spec), pct(mb.PVP), pct(mb.PVN),
		pct(me.Sens), pct(me.Spec), pct(me.PVP), pct(me.PVN))
	return b.String()
}
