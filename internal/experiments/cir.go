package experiments

import (
	"fmt"
	"strings"

	"specctrl/internal/conf"
	"specctrl/internal/metrics"
	"specctrl/internal/workload"
)

// CIRRow is one estimator's suite-mean metrics in the indexing-structure
// comparison.
type CIRRow struct {
	Estimator string
	Metrics   metrics.Metrics
}

// CIRResult tests the paper's §4.1 hypothesis head-on: "unless the
// indexing structure of a table-based confidence estimator matches that
// of the underlying branch predictor, the performance will suffer". It
// compares, under gshare:
//
//   - JRS (resetting MDC, pc^hist indexed) — matched indexing,
//   - CIR / ones-counting (pc^hist indexed) — matched indexing,
//     Jacobsen et al's other design,
//   - the global-MDC-indexed CIR — the mismatched variant the paper
//     says "probably did not work well",
//   - the one-register Distance estimator — no table at all, pure
//     clustering exploitation.
type CIRResult struct {
	Rows []CIRRow
}

// CIR runs the comparison. Thresholds are chosen so each estimator sits
// near its high-SPEC operating point.
func CIR(p Params) (*CIRResult, error) {
	mk := func() []conf.Estimator {
		return []conf.Estimator{
			conf.NewJRS(conf.JRSConfig{Entries: 4096, Bits: 4, Threshold: 15, Enhanced: true}),
			conf.NewOnesCount(conf.OnesCountConfig{Entries: 4096, Bits: 16, Threshold: 16, Enhanced: true}),
			conf.NewGlobalMDCIndexed(conf.OnesCountConfig{Entries: 64, Bits: 16, Threshold: 16}),
			conf.NewDistance(7),
		}
	}
	names := []string{"JRS(pc^hist)", "CIR(pc^hist)", "CIR(globalMDC)", "Distance(>7)"}
	perEst := make([][]metrics.Quadrant, len(names))
	stats, err := p.suiteStats("cir", GshareSpec(), "main",
		func(_ Params, _ workload.Workload) ([]conf.Estimator, error) { return mk(), nil })
	if err != nil {
		return nil, err
	}
	for _, st := range stats {
		for i := range names {
			perEst[i] = append(perEst[i], st.Confidence[i].CommittedQ)
		}
	}
	res := &CIRResult{}
	for i, n := range names {
		res.Rows = append(res.Rows, CIRRow{
			Estimator: n,
			Metrics:   metrics.AggregateNormalized(perEst[i]).Compute(),
		})
	}
	return res, nil
}

// Find returns the named row.
func (r *CIRResult) Find(name string) (CIRRow, bool) {
	for _, row := range r.Rows {
		if row.Estimator == name {
			return row, true
		}
	}
	return CIRRow{}, false
}

// Render prints the comparison.
func (r *CIRResult) Render() string {
	var b strings.Builder
	b.WriteString(header("Indexing-structure comparison (§4.1): table estimators on gshare"))
	fmt.Fprintf(&b, "%-15s %5s %5s %5s %5s\n", "estimator", "sens", "spec", "pvp", "pvn")
	for _, row := range r.Rows {
		m := row.Metrics
		fmt.Fprintf(&b, "%-15s %s %s %s %s\n",
			row.Estimator, pct(m.Sens), pct(m.Spec), pct(m.PVP), pct(m.PVN))
	}
	return b.String()
}
