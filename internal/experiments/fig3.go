package experiments

import (
	"fmt"
	"strings"

	"specctrl/internal/conf"
	"specctrl/internal/metrics"
	"specctrl/internal/plot"
	"specctrl/internal/workload"
)

// SweepPoint is one JRS configuration's suite-mean metrics.
type SweepPoint struct {
	Entries   int
	Threshold int
	Enhanced  bool
	Metrics   metrics.Metrics
}

// Fig3Result reproduces Figure 3: the base JRS (shared index) against the
// enhanced JRS (prediction folded into the index) across the full
// threshold sweep, under gshare.
type Fig3Result struct {
	Base     []SweepPoint
	Enhanced []SweepPoint
}

// jrsSweep runs one grid cell per workload on the given predictor with
// one JRS estimator per (entries, threshold, enhanced) configuration and
// returns suite-normalized metrics per configuration. exp names the
// experiment in the cells' spec keys.
func jrsSweep(p Params, exp string, spec PredictorSpec, configs []conf.JRSConfig) ([]SweepPoint, error) {
	perCfg := make([][]metrics.Quadrant, len(configs))
	stats, err := p.suiteStats(exp, spec, "sweep",
		func(_ Params, _ workload.Workload) ([]conf.Estimator, error) {
			ests := make([]conf.Estimator, len(configs))
			for i, c := range configs {
				ests[i] = conf.NewJRS(c)
			}
			return ests, nil
		})
	if err != nil {
		return nil, err
	}
	for _, st := range stats {
		for i := range configs {
			perCfg[i] = append(perCfg[i], st.Confidence[i].CommittedQ)
		}
	}
	points := make([]SweepPoint, len(configs))
	for i, c := range configs {
		points[i] = SweepPoint{
			Entries:   c.Entries,
			Threshold: c.Threshold,
			Enhanced:  c.Enhanced,
			Metrics:   metrics.AggregateNormalized(perCfg[i]).Compute(),
		}
	}
	return points, nil
}

// thresholds returns the sweep 1..max (max = 2^bits reaches the
// all-low-confidence end point the paper plots).
func thresholds(bits uint) []int {
	var out []int
	for t := 1; t <= 1<<bits; t++ {
		out = append(out, t)
	}
	return out
}

// Fig3 runs the base-vs-enhanced comparison on gshare with the paper's
// 4096-entry 4-bit MDC table.
func Fig3(p Params) (*Fig3Result, error) {
	var configs []conf.JRSConfig
	for _, enh := range []bool{false, true} {
		for _, t := range thresholds(4) {
			configs = append(configs, conf.JRSConfig{Entries: 4096, Bits: 4, Threshold: t, Enhanced: enh})
		}
	}
	pts, err := jrsSweep(p, "fig3", GshareSpec(), configs)
	if err != nil {
		return nil, err
	}
	res := &Fig3Result{}
	for _, pt := range pts {
		if pt.Enhanced {
			res.Enhanced = append(res.Enhanced, pt)
		} else {
			res.Base = append(res.Base, pt)
		}
	}
	return res, nil
}

func renderSweep(b *strings.Builder, label string, pts []SweepPoint) {
	fmt.Fprintf(b, "%s\n", label)
	fmt.Fprintf(b, "  %5s %5s %5s %5s %5s\n", "thr", "sens", "spec", "pvp", "pvn")
	for _, pt := range pts {
		m := pt.Metrics
		fmt.Fprintf(b, "  %5d %s %s %s %s\n",
			pt.Threshold, pct(m.Sens), pct(m.Spec), pct(m.PVP), pct(m.PVN))
	}
}

// Render prints both threshold sweeps and a PVN-vs-threshold chart.
func (r *Fig3Result) Render() string {
	var b strings.Builder
	b.WriteString(header("Figure 3: JRS base vs enhanced (gshare, 4096x4-bit MDC)"))
	renderSweep(&b, "base (shared index)", r.Base)
	renderSweep(&b, "enhanced (prediction in index)", r.Enhanced)
	pvn := func(pts []SweepPoint) []float64 {
		out := make([]float64, 0, len(pts))
		for _, pt := range pts {
			out = append(out, pt.Metrics.PVN)
		}
		return out
	}
	cfg := plot.DefaultConfig()
	cfg.XLabel = "threshold"
	b.WriteString("\n")
	b.WriteString(plot.Render(cfg,
		plot.Series{Name: "base PVN", Mark: 'o', Values: pvn(r.Base)},
		plot.Series{Name: "enhanced PVN", Mark: '*', Values: pvn(r.Enhanced)},
	))
	return b.String()
}

// Fig45Result reproduces Figures 4 and 5: the JRS design space — number
// of MDC entries crossed with the threshold sweep — under one predictor.
type Fig45Result struct {
	Predictor string
	// Lines maps each table size to its threshold sweep.
	Lines map[int][]SweepPoint
	Sizes []int
}

// Fig45 sweeps MDC entries {256..4096} × thresholds {1..16} on the given
// predictor spec (gshare for Figure 4, McFarling for Figure 5).
func Fig45(p Params, spec PredictorSpec) (*Fig45Result, error) {
	sizes := []int{256, 512, 1024, 2048, 4096}
	var configs []conf.JRSConfig
	for _, n := range sizes {
		for _, t := range thresholds(4) {
			configs = append(configs, conf.JRSConfig{Entries: n, Bits: 4, Threshold: t, Enhanced: true})
		}
	}
	pts, err := jrsSweep(p, "fig45", spec, configs)
	if err != nil {
		return nil, err
	}
	res := &Fig45Result{Predictor: spec.Name, Lines: map[int][]SweepPoint{}, Sizes: sizes}
	for _, pt := range pts {
		res.Lines[pt.Entries] = append(res.Lines[pt.Entries], pt)
	}
	return res, nil
}

// Render prints one threshold sweep per table size.
func (r *Fig45Result) Render() string {
	var b strings.Builder
	b.WriteString(header(fmt.Sprintf("Figure 4/5: JRS design space (%s)", r.Predictor)))
	for _, n := range r.Sizes {
		renderSweep(&b, fmt.Sprintf("%d-entry MDC table", n), r.Lines[n])
	}
	return b.String()
}
