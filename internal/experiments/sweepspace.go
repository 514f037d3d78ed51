package experiments

import (
	"fmt"
	"strings"

	"specctrl/internal/conf"
	"specctrl/internal/synth"
	"specctrl/internal/workload"
)

// DefaultSynthN is the sweepspace profile count when Params.SynthN is
// unset: large enough to cover the generator's axes, small enough that
// a laptop run stays in minutes.
const DefaultSynthN = 32

// sweepSpaceSeed seeds the generator's draw of sweepspace profiles. The
// drawn profiles' content-addressed names are the sweep's cell keys, so
// changing it changes every sweepspace row of results_full.txt.
const sweepSpaceSeed = 0x5eedc0de15ca1998

// sweepSpaceEstimators builds the fixed estimator panel every
// sweepspace workload is evaluated with — one representative per
// estimator family, in the paper's cost order.
func sweepSpaceEstimators(p Params) []conf.Estimator {
	return []conf.Estimator{
		conf.NewJRS(conf.JRSConfig{Entries: 4096, Bits: 4, Threshold: 15, Enhanced: true}),
		SatCntFor(GshareSpec(), conf.BothStrong),
		conf.NewPatternHistory(GshareSpec().HistBits),
		conf.NewDistance(3),
	}
}

// sweepSpaceEstimatorNames are the panel's column labels, aligned with
// sweepSpaceEstimators.
var sweepSpaceEstimatorNames = []string{"jrs", "satcnt", "pattern", "dist"}

// SweepSpaceEst is one estimator's quality on one workload.
type SweepSpaceEst struct {
	Spec float64 // fraction of mispredictions flagged low-confidence
	PVN  float64 // fraction of low-confidence flags that were right
}

// SweepSpaceRow is one workload's realized characteristics and
// estimator panel results.
type SweepSpaceRow struct {
	Name string
	// Profile is the generating vector; nil for appended workloads
	// (ingested traces carry no vector).
	Profile *synth.Profile
	// Density and Misp are realized under the pipeline's gshare run —
	// the ground truth the estimators were judged against.
	Density float64
	Misp    float64
	Ests    []SweepSpaceEst
}

// SweepSpaceResult is the full sweep.
type SweepSpaceResult struct {
	Rows []SweepSpaceRow
}

// SweepSpace sweeps the estimator panel over SynthN latin-hypercube
// profiles from the generator's vector space (plus any explicitly
// registered SynthWorkloads), one grid cell per workload through the
// standard machinery: cells cache by content-addressed workload name,
// and under replay each workload records once and replays the panel.
func SweepSpace(p Params) (*SweepSpaceResult, error) {
	n := p.SynthN
	if n <= 0 {
		n = DefaultSynthN
	}
	names := make([]string, 0, n+len(p.SynthWorkloads))
	seen := make(map[string]bool, n)
	for _, prof := range synth.Space(sweepSpaceSeed, n) {
		name, err := synth.Register(prof)
		if err != nil {
			return nil, fmt.Errorf("sweepspace: register profile: %w", err)
		}
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	for _, extra := range p.SynthWorkloads {
		if seen[extra] {
			continue
		}
		if _, err := workload.ByName(extra); err != nil {
			return nil, fmt.Errorf("sweepspace: %w", err)
		}
		seen[extra] = true
		names = append(names, extra)
	}

	stats, err := p.estimatorGrid(namedSpecs("sweepspace", names, GshareSpec(), "main"),
		func(p Params, _ workload.Workload, _ PredictorSpec, _ string) ([]conf.Estimator, error) {
			return sweepSpaceEstimators(p), nil
		})
	if err != nil {
		return nil, err
	}

	res := &SweepSpaceResult{}
	for i, name := range names {
		st := stats[i]
		row := SweepSpaceRow{
			Name:    name,
			Density: float64(st.CommittedBr) / float64(st.Committed),
			Misp:    st.MispredictRate(),
		}
		if prof, ok := synth.ProfileFor(name); ok {
			prof := prof
			row.Profile = &prof
		}
		for _, cs := range st.Confidence {
			row.Ests = append(row.Ests, SweepSpaceEst{
				Spec: cs.CommittedQ.Spec(),
				PVN:  cs.CommittedQ.PVN(),
			})
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render produces the sweep table: the generating vector's axes, the
// realized characteristics, and SPEC/PVN per panel estimator.
func (r *SweepSpaceResult) Render() string {
	var b strings.Builder
	b.WriteString(header("Sweepspace: estimator panel over the generator's vector space (gshare)"))
	fmt.Fprintf(&b, "%-18s %5s %6s %6s %6s %6s %8s %8s %7s | %6s %6s |",
		"workload", "sites", "den", "taken", "sprd", "h2p", "glob", "local", "clust", "den%", "misp%")
	for _, n := range sweepSpaceEstimatorNames {
		fmt.Fprintf(&b, " %13s", n)
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		if p := row.Profile; p != nil {
			glob, local, clust := "-", "-", "-"
			if p.GlobalFrac > 0 {
				glob = fmt.Sprintf("%.2f@%d", p.GlobalFrac, p.GlobalDepth)
			}
			if p.LocalFrac > 0 {
				local = fmt.Sprintf("%.2f@%d", p.LocalFrac, p.LocalPeriod)
			}
			if p.ClusterEvery > 0 {
				clust = fmt.Sprintf("%d/%d", p.ClusterBurst, p.ClusterEvery)
			}
			fmt.Fprintf(&b, "%-18s %5d %6.3f %6.2f %6.2f %6.2f %8s %8s %7s |",
				row.Name, p.Sites, p.Density, p.Taken, p.Spread, p.H2P, glob, local, clust)
		} else {
			fmt.Fprintf(&b, "%-18s %5s %6s %6s %6s %6s %8s %8s %7s |",
				row.Name, "-", "-", "-", "-", "-", "-", "-", "-")
		}
		fmt.Fprintf(&b, " %5.1f%% %5.1f%% |", row.Density*100, row.Misp*100)
		for _, e := range row.Ests {
			fmt.Fprintf(&b, "  %5.1f%%/%5.1f%%", e.Spec*100, e.PVN*100)
		}
		b.WriteString("\n")
	}
	return b.String()
}
