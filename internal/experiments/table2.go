// Table 2 of the paper: four confidence estimators × three branch
// predictors, reported as suite means over the committed-branch
// quadrants. The grid is one cell per (workload, predictor) — each cell
// runs one profiling pass (for the static estimator) plus one
// simulation evaluating all four estimators — executed in parallel
// under -jobs N and assembled in fixed suite order, so the rendered
// table is identical at any job count.

package experiments

import (
	"context"
	"fmt"
	"strings"

	"specctrl/internal/conf"
	"specctrl/internal/metrics"
	"specctrl/internal/runner"
	"specctrl/internal/workload"
)

// Table2Cell is one (estimator, predictor) suite-mean measurement.
type Table2Cell struct {
	Estimator string
	Predictor string
	Metrics   metrics.Metrics
	// PerApp holds each benchmark's committed quadrant (Table 1 order),
	// for drill-down and for the normalized aggregation.
	PerApp []metrics.Quadrant
}

// Table2Result reproduces the paper's Table 2: suite-mean SENS / SPEC /
// PVP / PVN of four estimators under three predictors.
type Table2Result struct {
	// Cells is indexed [estimator][predictor] in the paper's order:
	// estimators JRS, SatCnt, HistPattern, Static; predictors gshare,
	// McFarling, SAg.
	Cells [][]Table2Cell
	// EstimatorNames and PredictorNames label the axes.
	EstimatorNames []string
	PredictorNames []string
}

// table2Estimators builds the four estimator configurations of Table 2
// for the given predictor; static needs a per-workload profile, so it is
// created later and this returns its slot index.
func table2Estimators(p Params, spec PredictorSpec) []conf.Estimator {
	return []conf.Estimator{
		conf.NewJRS(conf.JRSConfig{Entries: 4096, Bits: 4, Threshold: 15, Enhanced: true}),
		SatCntFor(spec, conf.BothStrong),
		conf.NewPatternHistory(spec.HistBits(p)),
		// Slot 3 (static) is appended per workload by the caller.
	}
}

// table2Cell simulates one (workload, predictor) cell: a profiling pass
// for the static estimator, then one run evaluating all four estimators.
func table2Cell(_ context.Context, p Params, sp runner.Spec) (CellResult, error) {
	w, err := workload.ByName(sp.Workload)
	if err != nil {
		return CellResult{}, err
	}
	spec, err := predictorByName(sp.Predictor)
	if err != nil {
		return CellResult{}, err
	}
	static, err := p.staticFor(w, spec)
	if err != nil {
		return CellResult{}, fmt.Errorf("table2 static %s/%s: %w", w.Name, spec.Name, err)
	}
	ests := append(table2Estimators(p, spec), static)
	st, err := p.evalEstimators(w, spec, ests...)
	if err != nil {
		return CellResult{}, fmt.Errorf("table2 %s/%s: %w", w.Name, spec.Name, err)
	}
	return CellResult{Stats: st}, nil
}

// Table2 runs the full grid. For each (workload, predictor) pair a single
// simulation evaluates the JRS, saturating-counter and pattern-history
// estimators together; the static estimator adds one profiling run.
func Table2(p Params) (*Table2Result, error) {
	estNames := []string{"JRS(>=15)", "SatCnt", "HistPattern", "Static(>90%)"}
	specs := AllPredictors()
	res := &Table2Result{EstimatorNames: estNames}
	for _, s := range specs {
		res.PredictorNames = append(res.PredictorNames, s.Name)
	}
	// cells[est][pred]
	res.Cells = make([][]Table2Cell, len(estNames))
	for e := range res.Cells {
		res.Cells[e] = make([]Table2Cell, len(specs))
		for pr := range res.Cells[e] {
			res.Cells[e][pr] = Table2Cell{
				Estimator: estNames[e],
				Predictor: specs[pr].Name,
			}
		}
	}
	var gridSpecs []runner.Spec
	for _, w := range suite() {
		for _, spec := range specs {
			gridSpecs = append(gridSpecs, runner.Spec{
				Experiment: "table2", Workload: w.Name, Predictor: spec.Name, Variant: "main",
			})
		}
	}
	cells, err := p.runGrid(gridSpecs, table2Cell)
	if err != nil {
		return nil, err
	}
	i := 0
	for range suite() {
		for pi := range specs {
			st := cells[i].Stats
			i++
			for e := range estNames {
				cell := &res.Cells[e][pi]
				cell.PerApp = append(cell.PerApp, st.Confidence[e].CommittedQ)
			}
		}
	}
	// Aggregate with the paper's rule: normalize each benchmark's
	// quadrants, average them, and recompute the metrics.
	for e := range res.Cells {
		for pi := range res.Cells[e] {
			cell := &res.Cells[e][pi]
			cell.Metrics = metrics.AggregateNormalized(cell.PerApp).Compute()
		}
	}
	return res, nil
}

// Render produces the paper-style text table.
func (r *Table2Result) Render() string {
	var b strings.Builder
	b.WriteString(header("Table 2: confidence estimator performance (suite means, committed branches)"))
	fmt.Fprintf(&b, "%-14s", "")
	for _, pn := range r.PredictorNames {
		fmt.Fprintf(&b, " | %-19s", pn)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-14s", "estimator")
	for range r.PredictorNames {
		fmt.Fprintf(&b, " | %4s %4s %4s %4s", "sens", "spec", "pvp", "pvn")
	}
	b.WriteString("\n")
	for e, en := range r.EstimatorNames {
		fmt.Fprintf(&b, "%-14s", en)
		for pi := range r.PredictorNames {
			m := r.Cells[e][pi].Metrics
			fmt.Fprintf(&b, " | %s %s %s %s",
				pct(m.Sens), pct(m.Spec), pct(m.PVP), pct(m.PVN))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Cell returns the cell for the named estimator and predictor.
func (r *Table2Result) Cell(estimator, predictor string) (Table2Cell, bool) {
	for e, en := range r.EstimatorNames {
		if en != estimator {
			continue
		}
		for pi, pn := range r.PredictorNames {
			if pn == predictor {
				return r.Cells[e][pi], true
			}
		}
	}
	return Table2Cell{}, false
}

// RenderDetailed prints the per-application quadrant metrics behind the
// suite means — the detail the paper delegates to its companion tech
// report ("detailed information on each application can be found in
// [5]").
func (r *Table2Result) RenderDetailed() string {
	var b strings.Builder
	b.WriteString(header("Table 2 (detailed): per-application metrics"))
	apps := suite()
	for e, en := range r.EstimatorNames {
		for pi, pn := range r.PredictorNames {
			cell := r.Cells[e][pi]
			fmt.Fprintf(&b, "%s on %s\n", en, pn)
			fmt.Fprintf(&b, "  %-9s %5s %5s %5s %5s %9s\n",
				"app", "sens", "spec", "pvp", "pvn", "branches")
			for ai, q := range cell.PerApp {
				name := "?"
				if ai < len(apps) {
					name = apps[ai].Name
				}
				m := q.Compute()
				fmt.Fprintf(&b, "  %-9s %s %s %s %s %9d\n",
					name, pct(m.Sens), pct(m.Spec), pct(m.PVP), pct(m.PVN), q.Total())
			}
		}
	}
	return b.String()
}
