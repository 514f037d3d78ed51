package experiments

import (
	"context"
	"fmt"
	"strings"

	"specctrl/internal/conf"
	"specctrl/internal/runner"
	"specctrl/internal/workload"
)

// PatternsRow summarizes one predictor's history-pattern distribution
// over the suite.
type PatternsRow struct {
	Predictor string
	// Distinct is the mean number of distinct history patterns seen.
	Distinct float64
	// Coverage8/Accuracy8 describe the top-8 most frequent patterns:
	// the branch fraction they cover and the prediction accuracy over
	// that fraction (suite means).
	Coverage8 float64
	Accuracy8 float64
	// LickCoverage/LickAccuracy do the same for Lick et al's fixed
	// confident-pattern set (all/almost-all-taken, all/almost-all-not,
	// alternating).
	LickCoverage float64
	LickAccuracy float64
}

// PatternsResult reproduces the measurement behind §3.2's observation:
// per-branch (SAg) histories concentrate in a few highly accurate
// patterns, so a fixed pattern set makes a good estimator; global
// (gshare) histories spread thin, so the same set covers almost nothing.
type PatternsResult struct {
	Rows []PatternsRow
}

// patternsCell simulates one (workload, predictor) cell: a fresh
// pattern profiler plus the fixed Lick confident-pattern estimator.
// The profiler's dominance numbers are derived per-run state, so they
// travel in CellResult.Extra rather than in Stats.
func patternsCell(_ context.Context, p Params, sp runner.Spec) (CellResult, error) {
	w, err := workload.ByName(sp.Workload)
	if err != nil {
		return CellResult{}, err
	}
	spec, err := predictorByName(sp.Predictor)
	if err != nil {
		return CellResult{}, err
	}
	bits := spec.HistBits
	prof := conf.NewPatternProfiler(bits)
	st, err := p.evalEstimators(w, spec, prof, conf.NewPatternHistory(bits))
	if err != nil {
		return CellResult{}, fmt.Errorf("patterns %s/%s: %w", w.Name, spec.Name, err)
	}
	cov, acc := prof.Dominance(8)
	return CellResult{Stats: st, Extra: map[string]float64{
		"patterns":  float64(prof.Patterns()),
		"coverage8": cov,
		"accuracy8": acc,
	}}, nil
}

// Patterns profiles history-pattern dominance under gshare and SAg.
func Patterns(p Params) (*PatternsResult, error) {
	preds := []PredictorSpec{GshareSpec(), SAgSpec()}
	var gridSpecs []runner.Spec
	for _, spec := range preds {
		for _, w := range suite() {
			gridSpecs = append(gridSpecs, runner.Spec{
				Experiment: "patterns", Workload: w.Name, Predictor: spec.Name, Variant: "main",
			})
		}
	}
	cells, err := p.runGrid(gridSpecs, patternsCell)
	if err != nil {
		return nil, err
	}
	res := &PatternsResult{}
	i := 0
	for _, spec := range preds {
		var row PatternsRow
		row.Predictor = spec.Name
		n := 0.0
		for range suite() {
			c := cells[i]
			i++
			row.Distinct += c.Extra["patterns"]
			row.Coverage8 += c.Extra["coverage8"]
			row.Accuracy8 += c.Extra["accuracy8"]
			// Lick set coverage/accuracy from the estimator quadrant:
			// coverage = fraction marked HC; accuracy over that set = PVP.
			q := c.Stats.Confidence[1].CommittedQ
			row.LickCoverage += float64(q.Chc+q.Ihc) / float64(q.Total())
			row.LickAccuracy += q.PVP()
			n++
		}
		row.Distinct /= n
		row.Coverage8 /= n
		row.Accuracy8 /= n
		row.LickCoverage /= n
		row.LickAccuracy /= n
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the dominance table.
func (r *PatternsResult) Render() string {
	var b strings.Builder
	b.WriteString(header("History-pattern dominance (§3.2): why the pattern estimator needs per-branch history"))
	fmt.Fprintf(&b, "%-9s %9s | %7s %7s | %9s %9s\n",
		"predictor", "patterns", "top8cov", "top8acc", "lick-cov", "lick-acc")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-9s %9.0f | %6.1f%% %6.1f%% | %8.1f%% %8.1f%%\n",
			row.Predictor, row.Distinct, row.Coverage8*100, row.Accuracy8*100,
			row.LickCoverage*100, row.LickAccuracy*100)
	}
	b.WriteString("\nReading: under SAg a handful of per-branch patterns cover most branches\n")
	b.WriteString("at high accuracy, so a fixed confident-pattern set works; under gshare\n")
	b.WriteString("the global history disperses over thousands of patterns and the same\n")
	b.WriteString("set covers almost nothing — the paper's §3.2 observation.\n")
	return b.String()
}
