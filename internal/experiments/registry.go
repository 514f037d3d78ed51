package experiments

import "fmt"

// Renderer is any experiment result that can print itself as the
// paper-style text table. Every driver's result type implements it.
type Renderer interface{ Render() string }

// Entry is one registered experiment: a stable name, a one-line
// description, and the driver.
type Entry struct {
	Name string
	Desc string
	Run  func(p Params) (Renderer, error)
}

// detailed swaps a Table2Result's renderer for the per-application view.
type detailed struct{ r *Table2Result }

func (d detailed) Render() string { return d.r.Render() + "\n" + d.r.RenderDetailed() }

// registry maps experiment names to drivers. It is the single source of
// truth for every front end: cmd/simctrl runs entries locally,
// cmd/simserved executes them as service jobs, and specbench times
// each one.
var registry = map[string]Entry{}

// order fixes the presentation order for "run everything" front ends.
var order = []string{
	"table1", "metrics", "table2", "table2-detail", "fig1", "fig3", "fig4", "fig5",
	"table3", "fig6", "fig7", "fig8", "fig9", "table4", "misest", "boost",
	"boost-mcf", "cir", "auc", "patterns", "jrsmcf", "tuned", "xinput", "smt", "eager",
	"abl-width", "abl-spechist", "abl-gating", "abl-indirect", "abl-depth", "cost",
	"sweepspace", "frontier",
}

func register(name, desc string, run func(p Params) (Renderer, error)) {
	registry[name] = Entry{Name: name, Desc: desc, Run: run}
}

func init() {
	register("table1", "program characteristics: committed vs all instructions, misprediction rates",
		func(p Params) (Renderer, error) { return Table1(p) })
	register("table2", "four confidence estimators x three predictors, suite means",
		func(p Params) (Renderer, error) { return Table2(p) })
	register("table2-detail", "table2 with per-application drill-down (the paper's [5] detail)",
		func(p Params) (Renderer, error) {
			r, err := Table2(p)
			if err != nil {
				return nil, err
			}
			return detailed{r}, nil
		})
	register("table3", "Both-Strong vs Either-Strong saturating counters on McFarling",
		func(p Params) (Renderer, error) { return Table3(p) })
	register("table4", "misprediction-distance estimator vs JRS / SatCnt / Static",
		func(p Params) (Renderer, error) { return Table4(p) })
	register("fig1", "analytic PVP/PVN parameter curves",
		func(p Params) (Renderer, error) { return Fig1(p), nil })
	register("fig3", "JRS base vs enhanced threshold sweep (gshare)",
		func(p Params) (Renderer, error) { return Fig3(p) })
	register("fig4", "JRS design space: MDC entries x threshold (gshare)",
		func(p Params) (Renderer, error) { return Fig45(p, GshareSpec()) })
	register("fig5", "JRS design space: MDC entries x threshold (McFarling)",
		func(p Params) (Renderer, error) { return Fig45(p, McFarlingSpec()) })
	register("fig6", "precise misprediction distance (gshare)",
		func(p Params) (Renderer, error) { return FigDistance(p, GshareSpec(), false) })
	register("fig7", "precise misprediction distance (McFarling)",
		func(p Params) (Renderer, error) { return FigDistance(p, McFarlingSpec(), false) })
	register("fig8", "perceived misprediction distance (gshare)",
		func(p Params) (Renderer, error) { return FigDistance(p, GshareSpec(), true) })
	register("fig9", "perceived misprediction distance (McFarling)",
		func(p Params) (Renderer, error) { return FigDistance(p, McFarlingSpec(), true) })
	register("misest", "confidence mis-estimation clustering (section 4.1)",
		func(p Params) (Renderer, error) { return Misest(p) })
	register("boost", "consecutive-low-confidence boosting (section 4.2)",
		func(p Params) (Renderer, error) { return Boost(p, GshareSpec(), 4) })
	register("boost-mcf", "boosting on the McFarling predictor",
		func(p Params) (Renderer, error) { return Boost(p, McFarlingSpec(), 4) })
	register("abl-width", "ablation: JRS miss-distance-counter width",
		func(p Params) (Renderer, error) { return AblationWidth(p) })
	register("abl-spechist", "ablation: speculative vs non-speculative gshare history update",
		func(p Params) (Renderer, error) { return AblationSpecHistory(p) })
	register("abl-gating", "ablation: pipeline gating estimator x threshold design space",
		func(p Params) (Renderer, error) { return AblationGating(p) })
	register("abl-indirect", "ablation: perfect vs BTB/RAS-predicted indirect targets",
		func(p Params) (Renderer, error) { return AblationIndirect(p) })
	register("cost", "estimator implementation-cost inventory",
		func(p Params) (Renderer, error) { return Cost(p), nil })
	register("cir", "indexing-structure comparison: JRS vs CIR vs global-MDC-indexed CIR",
		func(p Params) (Renderer, error) { return CIR(p) })
	register("jrsmcf", "future work: McFarling-structured two-table JRS",
		func(p Params) (Renderer, error) { return JRSMcf(p) })
	register("tuned", "future work: static confidence tuned to SPEC/PVN targets",
		func(p Params) (Renderer, error) { return Tuned(p) })
	register("metrics", "section 2.1: paper metrics vs Jacobsen rate, with the rank inversion",
		func(p Params) (Renderer, error) { return MetricsCmp(p) })
	register("abl-depth", "ablation: fetch-to-resolve depth vs speculation ratio, SAg staleness",
		func(p Params) (Renderer, error) { return AblationDepth(p) })
	register("patterns", "section 3.2: history-pattern dominance under gshare vs SAg",
		func(p Params) (Renderer, error) { return Patterns(p) })
	register("frontier", "application: speculation-control policy frontier, cycles saved vs IPC lost",
		func(p Params) (Renderer, error) { return Frontier(p) })
	register("sweepspace", "estimator panel over generated workload profiles (-synth-n, -synth-profile)",
		func(p Params) (Renderer, error) { return SweepSpace(p) })
	register("smt", "application: SMT fetch policies over thread mixes",
		func(p Params) (Renderer, error) { return SMTStudy(p) })
	register("eager", "application: eager-execution cost model estimator ranking",
		func(p Params) (Renderer, error) { return EagerStudy(p) })
	register("xinput", "static estimator: self-profiled (paper's best case) vs cross-input training",
		func(p Params) (Renderer, error) { return XInput(p) })
	register("auc", "estimator-family ROC AUC: threshold-independent comparison",
		func(p Params) (Renderer, error) { return AUCStudy(p) })
}

// Experiments returns every registered experiment in presentation order
// (the order "-exp all" renders).
func Experiments() []Entry {
	out := make([]Entry, 0, len(order))
	for _, name := range order {
		out = append(out, registry[name])
	}
	return out
}

// Lookup resolves an experiment by name.
func Lookup(name string) (Entry, bool) {
	e, ok := registry[name]
	return e, ok
}

// Run executes one experiment by name under the given parameters.
func Run(name string, p Params) (Renderer, error) {
	e, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q", name)
	}
	return e.Run(p)
}
