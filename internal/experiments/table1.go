package experiments

import (
	"fmt"
	"strings"

	"specctrl/internal/runner"
)

// Table1Row holds one benchmark's characteristics (paper Table 1):
// committed work, branch counts, per-predictor misprediction rates, and
// the committed-vs-all speculation ratio measured under gshare.
type Table1Row struct {
	Name          string
	Committed     uint64  // committed instructions
	CommittedBr   uint64  // committed conditional branches
	BranchDensity float64 // CommittedBr / Committed
	MispGshare    float64
	MispMcF       float64
	MispSAg       float64
	AllInstr      uint64  // committed + wrong-path instructions (gshare)
	AllBr         uint64  // fetched conditional branches (gshare)
	Ratio         float64 // AllInstr / Committed
	IPC           float64 // gshare run
}

// Table1Result is the full table.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 measures program characteristics for the whole suite: one grid
// cell per (workload, predictor); the gshare cell also supplies the
// speculative-execution ratios.
func Table1(p Params) (*Table1Result, error) {
	preds := AllPredictors()
	var specs []runner.Spec
	for _, w := range suite() {
		for _, spec := range preds {
			specs = append(specs, runner.Spec{
				Experiment: "table1", Workload: w.Name, Predictor: spec.Name, Variant: "main",
			})
		}
	}
	stats, err := p.estimatorGrid(specs, noEstimators)
	if err != nil {
		return nil, err
	}

	res := &Table1Result{}
	i := 0
	for _, w := range suite() {
		row := Table1Row{Name: w.Name}
		for _, spec := range preds {
			st := stats[i]
			i++
			switch spec.Name {
			case "gshare":
				row.MispGshare = st.MispredictRate()
				row.Committed = st.Committed
				row.CommittedBr = st.CommittedBr
				row.BranchDensity = float64(st.CommittedBr) / float64(st.Committed)
				row.AllInstr = st.Committed + st.WrongPath
				row.AllBr = st.AllBr
				row.Ratio = st.SpeculationRatio()
				row.IPC = st.IPC()
			case "mcfarling":
				row.MispMcF = st.MispredictRate()
			case "sag":
				row.MispSAg = st.MispredictRate()
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Mean returns the arithmetic suite means of the misprediction rates and
// the speculation ratio.
func (r *Table1Result) Mean() Table1Row {
	var m Table1Row
	m.Name = "mean"
	n := float64(len(r.Rows))
	if n == 0 {
		return m
	}
	for _, row := range r.Rows {
		m.Committed += row.Committed
		m.CommittedBr += row.CommittedBr
		m.AllInstr += row.AllInstr
		m.BranchDensity += row.BranchDensity / n
		m.MispGshare += row.MispGshare / n
		m.MispMcF += row.MispMcF / n
		m.MispSAg += row.MispSAg / n
		m.Ratio += row.Ratio / n
		m.IPC += row.IPC / n
	}
	m.Committed /= uint64(len(r.Rows))
	m.CommittedBr /= uint64(len(r.Rows))
	m.AllInstr /= uint64(len(r.Rows))
	return m
}

// Render produces the paper-style text table.
func (r *Table1Result) Render() string {
	var b strings.Builder
	b.WriteString(header("Table 1: program characteristics (committed vs all instructions)"))
	fmt.Fprintf(&b, "%-9s %10s %9s %6s | %7s %7s %7s | %10s %8s %5s\n",
		"app", "committed", "cond.br", "br%", "gshare", "mcf", "sag", "all-inst", "ratio", "ipc")
	rows := append([]Table1Row{}, r.Rows...)
	rows = append(rows, r.Mean())
	for _, row := range rows {
		fmt.Fprintf(&b, "%-9s %10d %9d %5.1f%% | %6.1f%% %6.1f%% %6.1f%% | %10d %8.2f %5.2f\n",
			row.Name, row.Committed, row.CommittedBr, row.BranchDensity*100,
			row.MispGshare*100, row.MispMcF*100, row.MispSAg*100,
			row.AllInstr, row.Ratio, row.IPC)
	}
	return b.String()
}
