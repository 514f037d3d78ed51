// Table 2 of the paper: four confidence estimators × three branch
// predictors, reported as suite means over the committed-branch
// quadrants. The grid is one cell per (workload, predictor) — each cell
// runs one profiling pass (for the static estimator) plus one
// simulation evaluating all four estimators — executed in parallel
// under -jobs N and assembled in fixed suite order, so the rendered
// table is identical at any job count.

package experiments

import (
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

// table2Estimators builds one (workload, predictor) cell's four
// estimators in the paper's order: JRS, saturating counters, pattern
// history, and the static estimator from the pair's profile.
func table2Estimators(p Params, w workload.Workload, spec PredictorSpec, _ string) ([]conf.Estimator, error) {
	static, err := p.staticFor(w, spec)
	if err != nil {
		return nil, fmt.Errorf("table2 static %s/%s: %w", w.Name, spec.Name, err)
	}
	return []conf.Estimator{
		conf.NewJRS(conf.JRSConfig{Entries: 4096, Bits: 4, Threshold: 15, Enhanced: true}),
		SatCntFor(spec, conf.BothStrong),
		conf.NewPatternHistory(spec.HistBits),
		static,
	}, nil
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
	stats, err := p.estimatorGrid(gridSpecs, table2Estimators)
	if err != nil {
		return nil, err
	}
	i := 0
	for range suite() {
		for pi := range specs {
			st := stats[i]
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
