package experiments

import (
	"fmt"
	"strings"

	"specctrl/internal/conf"
	"specctrl/internal/metrics"
	"specctrl/internal/workload"
)

// AUCRow is one estimator family's threshold-independent quality.
type AUCRow struct {
	Family string
	Points int
	AUC    float64
}

// AUCResult compares estimator *families* independent of their
// threshold knob: each family's threshold sweep traces a curve in ROC
// space (SENS vs 1-SPEC over the suite-summed quadrants), and the area
// under it is a single-number ranking. 0.5 is chance; higher means the
// family separates correct from incorrect predictions better at every
// operating point. This extends the paper's per-threshold tables with
// the standard diagnostics-literature summary its §1.1 framing invites.
type AUCResult struct {
	Predictor string
	Rows      []AUCRow
}

// AUCStudy sweeps four families under gshare in one run per workload.
func AUCStudy(p Params) (*AUCResult, error) {
	type family struct {
		name string
		mk   func() []conf.Estimator
	}
	families := []family{
		{"JRS (4096x4)", func() []conf.Estimator {
			var es []conf.Estimator
			for t := 1; t <= 16; t++ {
				es = append(es, conf.NewJRS(conf.JRSConfig{Entries: 4096, Bits: 4, Threshold: t, Enhanced: true}))
			}
			return es
		}},
		{"CIR (4096x16)", func() []conf.Estimator {
			var es []conf.Estimator
			for t := 1; t <= 16; t++ {
				es = append(es, conf.NewOnesCount(conf.OnesCountConfig{Entries: 4096, Bits: 16, Threshold: t, Enhanced: true}))
			}
			return es
		}},
		{"Distance", func() []conf.Estimator {
			var es []conf.Estimator
			for t := 0; t <= 15; t++ {
				es = append(es, conf.NewDistance(t))
			}
			return es
		}},
		{"gMDC-CIR (64x16)", func() []conf.Estimator {
			var es []conf.Estimator
			for t := 1; t <= 16; t++ {
				es = append(es, conf.NewGlobalMDCIndexed(conf.OnesCountConfig{Entries: 64, Bits: 16, Threshold: t}))
			}
			return es
		}},
	}

	// Build the flat estimator list once per workload; slice ranges map
	// back to families.
	res := &AUCResult{Predictor: "gshare"}
	var offsets []int
	total := 0
	for _, f := range families {
		offsets = append(offsets, total)
		total += len(f.mk())
	}
	sums := make([]metrics.Quadrant, total)
	stats, err := p.suiteStats("auc", GshareSpec(), "main",
		func(_ Params, _ workload.Workload) ([]conf.Estimator, error) {
			var ests []conf.Estimator
			for _, f := range families {
				ests = append(ests, f.mk()...)
			}
			return ests, nil
		})
	if err != nil {
		return nil, err
	}
	for _, st := range stats {
		for i := range sums {
			sums[i].Add(st.Confidence[i].CommittedQ)
		}
	}
	for fi, f := range families {
		start := offsets[fi]
		end := total
		if fi+1 < len(families) {
			end = offsets[fi+1]
		}
		var pts []metrics.ROCPoint
		for _, q := range sums[start:end] {
			pts = append(pts, metrics.ROCFromQuadrant(q))
		}
		res.Rows = append(res.Rows, AUCRow{
			Family: f.name,
			Points: len(pts),
			AUC:    metrics.AUC(pts),
		})
	}
	return res, nil
}

// Find returns the named family's row.
func (r *AUCResult) Find(name string) (AUCRow, bool) {
	for _, row := range r.Rows {
		if row.Family == name {
			return row, true
		}
	}
	return AUCRow{}, false
}

// Render prints the AUC ranking.
func (r *AUCResult) Render() string {
	var b strings.Builder
	b.WriteString(header(fmt.Sprintf("Estimator-family ROC AUC (%s, suite)", r.Predictor)))
	fmt.Fprintf(&b, "%-18s %7s %7s\n", "family", "points", "auc")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-18s %7d %7.3f\n", row.Family, row.Points, row.AUC)
	}
	b.WriteString("\n0.5 = chance. The table estimators whose indexing matches the\n")
	b.WriteString("predictor dominate; the global-MDC-indexed table and the one-counter\n")
	b.WriteString("distance estimator trade most of that separation for near-zero cost.\n")
	return b.String()
}
