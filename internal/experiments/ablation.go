package experiments

import (
	"context"
	"fmt"
	"strings"

	"specctrl/internal/bpred"
	"specctrl/internal/conf"
	"specctrl/internal/metrics"
	"specctrl/internal/pipeline"
	"specctrl/internal/policy"
	"specctrl/internal/runner"
	"specctrl/internal/workload"
)

// --- JRS counter width ablation ---------------------------------------

// WidthPoint is one (counter width, threshold) JRS configuration's suite
// metrics.
type WidthPoint struct {
	Bits      uint
	Threshold int
	Metrics   metrics.Metrics
}

// AblationWidthResult sweeps the JRS miss-distance-counter width. The
// paper fixes 4-bit counters "as suggested in [7]"; this ablation shows
// what that choice buys: wider counters reach higher SPEC/PVP at their
// top thresholds, at linear storage cost.
type AblationWidthResult struct {
	Points []WidthPoint
}

// AblationWidth measures JRS with 2..6-bit counters at each width's
// saturation threshold (the paper's "threshold 15 of 4 bits" analogue)
// and at half saturation, under gshare.
func AblationWidth(p Params) (*AblationWidthResult, error) {
	var configs []conf.JRSConfig
	var meta []WidthPoint
	for _, bits := range []uint{2, 3, 4, 5, 6} {
		full := 1<<bits - 1
		for _, thr := range []int{full/2 + 1, full} {
			configs = append(configs, conf.JRSConfig{
				Entries: 4096, Bits: bits, Threshold: thr, Enhanced: true,
			})
			meta = append(meta, WidthPoint{Bits: bits, Threshold: thr})
		}
	}
	pts, err := jrsSweep(p, "abl-width", GshareSpec(), configs)
	if err != nil {
		return nil, err
	}
	res := &AblationWidthResult{}
	for i, pt := range pts {
		meta[i].Metrics = pt.Metrics
		res.Points = append(res.Points, meta[i])
	}
	return res, nil
}

// Render prints the width ablation.
func (r *AblationWidthResult) Render() string {
	var b strings.Builder
	b.WriteString(header("Ablation: JRS counter width (gshare, 4096 entries, enhanced)"))
	fmt.Fprintf(&b, "%4s %4s | %5s %5s %5s %5s | %9s\n",
		"bits", "thr", "sens", "spec", "pvp", "pvn", "storage")
	for _, pt := range r.Points {
		m := pt.Metrics
		fmt.Fprintf(&b, "%4d %4d | %s %s %s %s | %6d b\n",
			pt.Bits, pt.Threshold, pct(m.Sens), pct(m.Spec), pct(m.PVP), pct(m.PVN),
			4096*int(pt.Bits))
	}
	return b.String()
}

// --- speculative vs non-speculative history ablation -------------------

// SpecHistoryRow compares one benchmark under the two gshare history
// disciplines.
type SpecHistoryRow struct {
	Name        string
	SpecMisp    float64 // speculative update + squash repair
	NonSpecMisp float64 // update at resolution only
	SpecIPC     float64
	NonSpecIPC  float64
}

// AblationSpecHistoryResult quantifies the paper's §3.1 remark that
// non-speculative history update "will slightly increase the branch
// misprediction rate".
type AblationSpecHistoryResult struct {
	Rows []SpecHistoryRow
}

// AblationSpecHistory runs the suite under both gshare variants, one
// grid cell per (workload, history discipline).
func AblationSpecHistory(p Params) (*AblationSpecHistoryResult, error) {
	nonspec := PredictorSpec{
		Name:     "gshare-nonspec",
		New:      func() bpred.Predictor { return bpred.NewGshareNonSpec(bpred.GshareBits) },
		HistBits: bpred.GshareBits,
	}
	var gridSpecs []runner.Spec
	for _, w := range suite() {
		for _, pred := range []PredictorSpec{GshareSpec(), nonspec} {
			gridSpecs = append(gridSpecs, runner.Spec{
				Experiment: "abl-spechist", Workload: w.Name, Predictor: pred.Name, Variant: "main",
			})
		}
	}
	cells, err := p.runGrid(gridSpecs, func(_ context.Context, p Params, sp runner.Spec) (CellResult, error) {
		w, err := workload.ByName(sp.Workload)
		if err != nil {
			return CellResult{}, err
		}
		// The speculative-history cell is gshare's estimator-less run,
		// which the recorded trace already holds.
		var st *pipeline.Stats
		if sp.Predictor == nonspec.Name {
			st, err = p.runOne(w, nonspec)
		} else {
			st, err = p.baseStats(w, GshareSpec())
		}
		if err != nil {
			return CellResult{}, fmt.Errorf("ablation %s: %w", sp.Key(), err)
		}
		return CellResult{Stats: st}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &AblationSpecHistoryResult{}
	i := 0
	for _, w := range suite() {
		row := SpecHistoryRow{Name: w.Name}
		st := cells[i].Stats
		row.SpecMisp, row.SpecIPC = st.MispredictRate(), st.IPC()
		st = cells[i+1].Stats
		row.NonSpecMisp, row.NonSpecIPC = st.MispredictRate(), st.IPC()
		i += 2
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// MeanDelta returns the suite-mean misprediction-rate increase of the
// non-speculative discipline.
func (r *AblationSpecHistoryResult) MeanDelta() float64 {
	var d float64
	for _, row := range r.Rows {
		d += row.NonSpecMisp - row.SpecMisp
	}
	return d / float64(len(r.Rows))
}

// Render prints the comparison.
func (r *AblationSpecHistoryResult) Render() string {
	var b strings.Builder
	b.WriteString(header("Ablation: speculative vs non-speculative gshare history update"))
	fmt.Fprintf(&b, "%-9s | %10s %10s | %7s %7s\n", "app", "spec-misp", "nonspec", "ipc", "ipc-ns")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-9s | %9.1f%% %9.1f%% | %7.2f %7.2f\n",
			row.Name, row.SpecMisp*100, row.NonSpecMisp*100, row.SpecIPC, row.NonSpecIPC)
	}
	fmt.Fprintf(&b, "mean misprediction increase: %+.2f points\n", r.MeanDelta()*100)
	return b.String()
}

// --- gating operating curve --------------------------------------------

// GatingPoint is one (estimator, threshold) gating outcome, suite means.
type GatingPoint struct {
	Estimator string
	Threshold int
	Reduction float64 // wrong-path instructions removed
	Slowdown  float64
}

// AblationGatingResult maps the speculation-control design space the
// paper motivates: which estimator, and how aggressively to gate.
type AblationGatingResult struct {
	Points []GatingPoint
}

// AblationGating sweeps gating thresholds 1..3 with three estimator
// choices over the suite, using gshare. Every run is a shared policied
// cell (policied.go): one baseline per workload, plus one cell per
// (estimator, threshold, workload).
func AblationGating(p Params) (*AblationGatingResult, error) {
	ests := []string{"JRS(t=15)", "SatCnt", "Dist(>3)"}
	runs := suiteRuns("", "")
	for _, e := range ests {
		for thr := 1; thr <= 3; thr++ {
			runs = append(runs, suiteRuns(e, policy.Gating{Threshold: thr}.Name())...)
		}
	}
	stats, err := p.policiedStats(runs)
	if err != nil {
		return nil, err
	}
	n := len(suite())
	base, stats := stats[:n], stats[n:]
	res := &AblationGatingResult{}
	for _, e := range ests {
		for thr := 1; thr <= 3; thr++ {
			var red, slow float64
			for i, gated := range stats[:n] {
				red += extraWorkReduction(base[i], gated)
				slow += gatingSlowdown(base[i], gated)
			}
			stats = stats[n:]
			res.Points = append(res.Points, GatingPoint{
				Estimator: e, Threshold: thr,
				Reduction: red / float64(n), Slowdown: slow / float64(n),
			})
		}
	}
	return res, nil
}

// extraWorkReduction returns the fraction of the baseline's wrong-path
// instructions a policied run eliminated; degenerate runs with no
// baseline wrong-path work report 0.
func extraWorkReduction(base, gated *pipeline.Stats) float64 {
	if base.WrongPath == 0 {
		return 0
	}
	return 1 - float64(gated.WrongPath)/float64(base.WrongPath)
}

// gatingSlowdown returns the relative execution-time increase of a
// policied run over its baseline (cycles per committed instruction, so
// capped runs compare fairly). Degenerate runs — either side committing
// nothing, or a zero-cycle baseline — report 0 rather than dividing by
// it.
func gatingSlowdown(base, gated *pipeline.Stats) float64 {
	if base.Cycles == 0 || base.Committed == 0 || gated.Committed == 0 {
		return 0
	}
	b := float64(base.Cycles) / float64(base.Committed)
	g := float64(gated.Cycles) / float64(gated.Committed)
	return g/b - 1
}

// Render prints the gating design space.
func (r *AblationGatingResult) Render() string {
	var b strings.Builder
	b.WriteString(header("Ablation: pipeline gating design space (gshare, suite means)"))
	fmt.Fprintf(&b, "%-10s %4s %10s %9s\n", "estimator", "thr", "reduction", "slowdown")
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "%-10s %4d %9.1f%% %8.2f%%\n",
			pt.Estimator, pt.Threshold, pt.Reduction*100, pt.Slowdown*100)
	}
	return b.String()
}

// --- indirect-prediction ablation ---------------------------------------

// IndirectRow compares one benchmark with and without the BTB/RAS front
// end.
type IndirectRow struct {
	Name       string
	BaseRatio  float64 // speculation ratio, perfect targets
	BTBRatio   float64 // with target prediction
	Returns    uint64
	IndirectBr uint64
	TargetMisp uint64
}

// AblationIndirectResult measures how much wrong-path work indirect
// target mispredictions add on top of direction mispredictions.
type AblationIndirectResult struct {
	Rows []IndirectRow
}

// AblationIndirect runs the suite with target prediction off and on,
// one grid cell per (workload, front-end variant).
func AblationIndirect(p Params) (*AblationIndirectResult, error) {
	var gridSpecs []runner.Spec
	for _, w := range suite() {
		for _, variant := range []string{"base", "btb"} {
			gridSpecs = append(gridSpecs, runner.Spec{
				Experiment: "abl-indirect", Workload: w.Name, Predictor: "gshare", Variant: variant,
			})
		}
	}
	cells, err := p.runGrid(gridSpecs, func(_ context.Context, p Params, sp runner.Spec) (CellResult, error) {
		w, err := workload.ByName(sp.Workload)
		if err != nil {
			return CellResult{}, err
		}
		if sp.Variant == "base" {
			st, err := p.baseStats(w, GshareSpec())
			if err != nil {
				return CellResult{}, fmt.Errorf("ablation indirect base %s: %w", w.Name, err)
			}
			return CellResult{Stats: st}, nil
		}
		p.Pipeline.IndirectPrediction = true
		st, err := p.runOne(w, GshareSpec())
		if err != nil {
			return CellResult{}, fmt.Errorf("ablation indirect btb %s: %w", w.Name, err)
		}
		return CellResult{Stats: st}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &AblationIndirectResult{}
	i := 0
	for _, w := range suite() {
		row := IndirectRow{Name: w.Name}
		row.BaseRatio = cells[i].Stats.SpeculationRatio()
		st := cells[i+1].Stats
		row.BTBRatio = st.SpeculationRatio()
		row.Returns = st.Returns
		row.IndirectBr = st.IndirectBr
		row.TargetMisp = st.TargetMisp
		i += 2
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the indirect ablation.
func (r *AblationIndirectResult) Render() string {
	var b strings.Builder
	b.WriteString(header("Ablation: perfect vs predicted indirect targets (gshare)"))
	fmt.Fprintf(&b, "%-9s %10s %10s %9s %9s %9s\n",
		"app", "ratio", "ratio+btb", "returns", "indirect", "tgt-misp")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-9s %10.3f %10.3f %9d %9d %9d\n",
			row.Name, row.BaseRatio, row.BTBRatio, row.Returns, row.IndirectBr, row.TargetMisp)
	}
	return b.String()
}

// --- estimator hardware cost -------------------------------------------

// CostRow is one estimator's implementation cost, the axis the paper
// weighs every design against (§3.1: "the JRS estimator is significantly
// more expensive to implement than either the saturating counters, the
// history pattern or the profile method").
type CostRow struct {
	Estimator string
	// StorageBits is dedicated estimator state (tables, counters).
	StorageBits int
	// Notes describes non-storage costs (ports, profile pass, ISA hint
	// bits).
	Notes string
}

// CostResult is the estimator cost inventory.
type CostResult struct {
	Rows []CostRow
}

// Cost tabulates the hardware cost of the paper's estimator zoo at the
// paper's configurations.
func Cost(p Params) *CostResult {
	return &CostResult{Rows: []CostRow{
		{"JRS 4096x4", 4096 * 4, "extra table + second read port on mispredict reset"},
		{"JRS 1024x4", 1024 * 4, "smaller table costs a few PVN points (Fig 4)"},
		{"SatCnt", 0, "reuses the predictor's counters; combinational only"},
		{"SatCnt both/either", 0, "two component counters already read by McFarling"},
		{"HistPattern", 0, "combinational pattern match on the history register"},
		{"Static >90%", 0, "1 hint bit per branch instruction + profiling run"},
		{"Distance >n", 8, "one global counter + comparator"},
		{"Boost k", 2, "run-length counter on top of the inner estimator"},
	}}
}

// Render prints the cost table.
func (r *CostResult) Render() string {
	var b strings.Builder
	b.WriteString(header("Estimator implementation cost"))
	fmt.Fprintf(&b, "%-20s %12s  %s\n", "estimator", "storage", "notes")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-20s %10d b  %s\n", row.Estimator, row.StorageBits, row.Notes)
	}
	return b.String()
}
