package experiments

import (
	"fmt"
	"strings"

	"specctrl/internal/pipeline"
)

// The frontier experiment maps the speculation-control design space the
// policy layer opens up: for each (policy, estimator) operating point it
// measures how many cycles of misspeculation the policy reclaims against
// how much throughput it costs, as suite means over the paper's
// workloads. Pipeline gating (gate:t), variable fetch-rate throttling
// (throttle:w0,w1,...) and patience-based gating (boost:t,p) are all
// driven through the same pipeline.Policy installation, so their
// operating points are directly comparable — the energy/performance
// frontier the paper's §2.2 applications argue about.

// frontierPolicies are the policy operating points the frontier sweeps,
// as canonical policy.Parse specs (Parse round-trips Name(), so the
// spec strings double as table labels and cell-variant keys).
func frontierPolicies() []string {
	return []string{
		"gate:1", "gate:2", "gate:3",
		"throttle:4,2,1", "throttle:4,1",
		"boost:2,4",
	}
}

// frontierEstimators are the confidence sources (policiedEstimators
// keys) the frontier crosses with every policy.
func frontierEstimators() []string {
	return []string{"JRS(t=15)", "SatCnt"}
}

// FrontierPoint is one (estimator, policy) operating point, suite means.
type FrontierPoint struct {
	Estimator string
	Policy    string
	GatedFrac float64 // share of cycles the policy withheld fetch
	Reduction float64 // wrong-path instructions removed vs baseline
	SpecSaved float64 // misspeculation cycle share reclaimed (points)
	IPCLost   float64 // 1 - policied IPC / baseline IPC
}

// FrontierResult is the frontier table: the unpolicied baseline anchors
// every policied operating point.
type FrontierResult struct {
	Points []FrontierPoint
}

// frontierMeans is the suite-mean measurement of one (estimator, policy)
// point or of the baseline.
type frontierMeans struct {
	ipc    float64 // IPC
	ew     float64 // wrong-path / committed
	specOH float64 // misspeculation cycle share
	gated  float64 // gated cycle share
}

// frontierMean folds one point's per-workload statistics, in suite
// order, into suite means.
func frontierMean(stats []*pipeline.Stats) frontierMeans {
	var m frontierMeans
	for _, st := range stats {
		m.ipc += st.IPC()
		if st.Committed > 0 {
			m.ew += float64(st.WrongPath) / float64(st.Committed)
		}
		m.specOH += st.CycleAccounts.SpeculationOverhead()
		m.gated += st.CycleAccounts.Fraction(pipeline.BucketGated)
	}
	fn := float64(len(stats))
	return frontierMeans{m.ipc / fn, m.ew / fn, m.specOH / fn, m.gated / fn}
}

// Frontier sweeps policies x estimators over the suite with gshare.
// Every run is a shared policied cell (policied.go): one baseline per
// workload anchors every estimator's operating points, and each
// (estimator, policy, workload) run is its own cell. Policies perturb
// fetch timing, so every cell simulates directly — the replay path
// never applies here.
func Frontier(p Params) (*FrontierResult, error) {
	runs := suiteRuns("", "")
	for _, e := range frontierEstimators() {
		for _, spec := range frontierPolicies() {
			runs = append(runs, suiteRuns(e, spec)...)
		}
	}
	stats, err := p.policiedStats(runs)
	if err != nil {
		return nil, err
	}
	n := len(suite())
	base := frontierMean(stats[:n])
	stats = stats[n:]
	res := &FrontierResult{}
	for _, e := range frontierEstimators() {
		for _, spec := range frontierPolicies() {
			cell := frontierMean(stats[:n])
			stats = stats[n:]
			pt := FrontierPoint{
				Estimator: e,
				Policy:    spec,
				GatedFrac: cell.gated,
				SpecSaved: base.specOH - cell.specOH,
			}
			if base.ew > 0 {
				pt.Reduction = 1 - cell.ew/base.ew
			}
			if base.ipc > 0 {
				pt.IPCLost = 1 - cell.ipc/base.ipc
			}
			res.Points = append(res.Points, pt)
		}
	}
	return res, nil
}

// Render prints the frontier table.
func (r *FrontierResult) Render() string {
	var b strings.Builder
	b.WriteString(header("Speculation-control frontier: cycles saved vs IPC lost (gshare, suite means)"))
	fmt.Fprintf(&b, "%-10s %-15s | %6s %8s | %10s %9s\n",
		"estimator", "policy", "gated", "ew-red", "spec-saved", "ipc-lost")
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "%-10s %-15s | %5.1f%% %7.1f%% | %+9.1fpp %8.2f%%\n",
			pt.Estimator, pt.Policy, pt.GatedFrac*100, pt.Reduction*100,
			pt.SpecSaved*100, pt.IPCLost*100)
	}
	b.WriteString("Reading the table: spec-saved is the misspeculation cycle share\n")
	b.WriteString("(wrong-path fetch + recovery) the policy reclaims, in points; the\n")
	b.WriteString("frontier trades it against ipc-lost. gate:t stalls fetch outright,\n")
	b.WriteString("throttle narrows it, boost waits out short low-confidence bursts.\n")
	return b.String()
}
