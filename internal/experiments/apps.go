package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"specctrl/internal/conf"
	"specctrl/internal/eager"
	"specctrl/internal/isa"
	"specctrl/internal/metrics"
	"specctrl/internal/obs/span"
	"specctrl/internal/runner"
	"specctrl/internal/smt"
	"specctrl/internal/workload"
)

// SMTRow is one thread-mix's policy comparison.
type SMTRow struct {
	Mix        string
	RoundRobin float64 // aggregate IPC
	ICount     float64
	Confidence float64
	Gain       float64 // confidence vs round-robin
}

// SMTResult evaluates the paper's SMT motivation (§2, §2.2): a fetch
// policy that skips threads with unresolved low-confidence branches
// should beat blind sharing, most of all when a predictable thread is
// paired with a hostile one.
type SMTResult struct {
	Rows []SMTRow
}

// smtPolicies lists the fetch policies in table order.
var smtPolicies = []smt.Policy{smt.RoundRobin, smt.ICount, smt.ConfidenceGate}

// SMTStudy runs three two-thread mixes under the three fetch policies,
// one grid cell per (mix, policy). The cell spec's workload field names
// the mix ("a+b"); the throughput travels in CellResult.Extra because an
// SMT run has no single-thread Stats to return, so the cell sets its
// span's cycles to the threads' summed cycles itself.
func SMTStudy(p Params) (*SMTResult, error) {
	mixes := [][2]string{
		{"m88ksim", "go"},    // predictable + hostile
		{"vortex", "gcc"},    // predictable + branchy
		{"compress", "perl"}, // middle of the road
	}
	var gridSpecs []runner.Spec
	for _, mix := range mixes {
		for _, policy := range smtPolicies {
			gridSpecs = append(gridSpecs, runner.Spec{
				Experiment: "smt", Workload: mix[0] + "+" + mix[1],
				Predictor: "gshare", Variant: policy.String(),
			})
		}
	}
	cell := func(ctx context.Context, p Params, sp runner.Spec) (CellResult, error) {
		var smtPol smt.Policy
		found := false
		for _, pol := range smtPolicies {
			if pol.String() == sp.Variant {
				smtPol, found = pol, true
			}
		}
		if !found {
			return CellResult{}, fmt.Errorf("smt: unknown policy variant %q", sp.Variant)
		}
		var progs []*isa.Program
		for _, name := range strings.Split(sp.Workload, "+") {
			w, err := workload.ByName(name)
			if err != nil {
				return CellResult{}, fmt.Errorf("smt mix %s: %w", sp.Workload, err)
			}
			progs = append(progs, buildProgram(w))
		}
		cfg := smt.Config{
			CycleBudget: p.MaxCommitted / 4, // roughly IPC~2+ worth of work
			Pipeline:    p.Pipeline,
			Policy:      smtPol,
		}
		newEst := func() conf.Estimator { return conf.NewJRS(conf.DefaultJRS) }
		// One smt.Run is one run, however many threads it interleaves;
		// each thread carries its own JRS estimator.
		var r *smt.Result
		err := p.simulate(simulateRun, sp.Workload+"/"+sp.Variant, sp.Predictor, len(progs), func(*span.Span) (uint64, error) {
			var err error
			if r, err = smt.Run(cfg, progs, GshareSpec().New, newEst); err != nil {
				return 0, err
			}
			return r.ThreadCycles, nil
		})
		if err != nil {
			return CellResult{}, fmt.Errorf("smt %s/%s: %w", sp.Workload, smtPol, err)
		}
		span.FromContext(ctx).SetAttrs(span.Int("cycles", int64(r.ThreadCycles)))
		return CellResult{Extra: map[string]float64{"throughput": r.Throughput()}}, nil
	}
	cells, err := p.runGrid(gridSpecs, cell)
	if err != nil {
		return nil, err
	}
	res := &SMTResult{}
	i := 0
	for _, mix := range mixes {
		row := SMTRow{Mix: mix[0] + "+" + mix[1]}
		for _, policy := range smtPolicies {
			tp := cells[i].Extra["throughput"]
			i++
			switch policy {
			case smt.RoundRobin:
				row.RoundRobin = tp
			case smt.ICount:
				row.ICount = tp
			default:
				row.Confidence = tp
			}
		}
		if row.RoundRobin > 0 {
			row.Gain = row.Confidence/row.RoundRobin - 1
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the policy comparison.
func (r *SMTResult) Render() string {
	var b strings.Builder
	b.WriteString(header("Application: SMT fetch policies (aggregate IPC, 2 threads, gshare+JRS)"))
	fmt.Fprintf(&b, "%-16s %8s %8s %11s %7s\n", "mix", "rr", "icount", "confidence", "gain")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %8.3f %8.3f %11.3f %+6.1f%%\n",
			row.Mix, row.RoundRobin, row.ICount, row.Confidence, row.Gain*100)
	}
	return b.String()
}

// EagerRow is one estimator's suite-mean eager-execution outcome.
type EagerRow struct {
	Estimator string
	Saved     float64 // cycles saved per 1000 committed branches
	Forks     float64 // forks per 1000 committed branches
	Metrics   metrics.Metrics
}

// EagerResult evaluates the eager-execution cost model (§2.2) across
// estimators over the whole suite: which estimator's low-confidence set
// is worth forking on, and by how much.
type EagerResult struct {
	Model eager.Model
	Rows  []EagerRow
}

// EagerStudy measures the estimators once per workload (one run,
// fan-out) and applies the dual-path model to the suite-summed
// quadrants.
func EagerStudy(p Params) (*EagerResult, error) {
	mk := func() []conf.Estimator {
		return []conf.Estimator{
			conf.NewJRS(conf.DefaultJRS),
			conf.NewJRS(conf.JRSConfig{Entries: 4096, Bits: 4, Threshold: 7, Enhanced: true}),
			conf.SatCounters{},
			conf.NewDistance(3),
			conf.Always{High: false},
		}
	}
	names := []string{"JRS t=15", "JRS t=7", "SatCnt", "Dist(>3)", "fork-always"}
	sums := make([]metrics.Quadrant, len(names))
	stats, err := p.suiteStats("eager", GshareSpec(), "main",
		func(_ Params, _ workload.Workload) ([]conf.Estimator, error) { return mk(), nil })
	if err != nil {
		return nil, err
	}
	for _, st := range stats {
		for i := range names {
			sums[i].Add(st.Confidence[i].CommittedQ)
		}
	}
	model := eager.DefaultModel()
	res := &EagerResult{Model: model}
	for i, n := range names {
		o, err := model.Evaluate(sums[i])
		if err != nil {
			return nil, fmt.Errorf("eager model %s: %w", n, err)
		}
		res.Rows = append(res.Rows, EagerRow{
			Estimator: n,
			Saved:     o.SavedPerKilo,
			Forks:     o.Forks,
			Metrics:   sums[i].Compute(),
		})
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].Saved > res.Rows[j].Saved })
	return res, nil
}

// Render prints the eager ranking.
func (r *EagerResult) Render() string {
	var b strings.Builder
	b.WriteString(header(fmt.Sprintf(
		"Application: eager execution model (suite, penalty=%.0f fork=%.0f)",
		r.Model.MispredictPenalty, r.Model.ForkCost)))
	fmt.Fprintf(&b, "%-12s %9s %8s %6s %6s\n", "estimator", "saved/1k", "forks/1k", "spec", "pvn")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %+9.1f %8.0f %5.0f%% %5.0f%%\n",
			row.Estimator, row.Saved, row.Forks, row.Metrics.Spec*100, row.Metrics.PVN*100)
	}
	return b.String()
}
