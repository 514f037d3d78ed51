package experiments

import (
	"context"
	"fmt"
	"strings"

	"specctrl/internal/conf"
	"specctrl/internal/memo"
	"specctrl/internal/pipeline"
	"specctrl/internal/policy"
	"specctrl/internal/runner"
	"specctrl/internal/workload"
)

// Policied runs: the cell kind abl-gating and frontier share.
//
// Both experiments compare policied runs against an unpolicied
// baseline. Estimators are passive observers, so the baseline depends
// only on the workload and the predictor: one estimator-free baseline
// per workload serves every (estimator, policy) point of every
// experiment. Each distinct pipeline run is therefore its own grid cell,
// keyed
//
//	policied/<workload>/gshare/<estimator>|<policy>   a policied run
//	policied/<workload>/gshare/baseline               the baseline
//
// independent of which experiment asks for it, so experiments that share
// a run share its cell through Params.Cache (serve's store) or, when
// Cache is nil, through the process-wide policiedMemo. A base-config Params.Pipeline.Policy never applies: a
// cell installs only its own policy, and a baseline none. A baseline is
// the pair's default run, so it comes from the recorded trace
// (baseStats) rather than a simulation of its own.

const (
	policiedExperiment = "policied"
	policiedBaseline   = "baseline"
)

// policiedEstimators resolves the estimator names policied cells accept
// to fresh-instance constructors.
var policiedEstimators = map[string]func() conf.Estimator{
	"JRS(t=15)": func() conf.Estimator { return conf.NewJRS(conf.DefaultJRS) },
	"SatCnt":    func() conf.Estimator { return conf.SatCounters{} },
	"Dist(>3)":  func() conf.Estimator { return conf.NewDistance(3) },
}

// policiedRun names one policied run; the zero Estimator and Policy name
// the workload's baseline.
type policiedRun struct {
	workload  string
	estimator string // a policiedEstimators key
	policy    string // canonical policy.Parse spec, e.g. "gate:2"
}

func (r policiedRun) spec() runner.Spec {
	variant := policiedBaseline
	if r.estimator != "" || r.policy != "" {
		variant = r.estimator + "|" + r.policy
	}
	return runner.Spec{
		Experiment: policiedExperiment, Workload: r.workload,
		Predictor: GshareSpec().Name, Variant: variant,
	}
}

// suiteRuns returns one run per suite benchmark, in suite order, under
// the given estimator and policy ("" and "" for the baselines).
func suiteRuns(estimator, pol string) []policiedRun {
	names := suiteNames()
	runs := make([]policiedRun, len(names))
	for i, name := range names {
		runs[i] = policiedRun{workload: name, estimator: estimator, policy: pol}
	}
	return runs
}

// policiedMemo shares policied cells within one process when
// Params.Cache is nil, the way defaultTraceCache shares recordings: a
// `simctrl -exp all` run computes each run once for both experiments.
// Each cell is charged 1, so the budget is a count: memoCellCap cells,
// the 128 distinct cells of one parameter set many times over.
var policiedMemo = newMemoCells()

// memoCellCap is how many cells policiedMemo holds.
const memoCellCap = 4096

// memoCells is a memo.Cache as a CellCache.
type memoCells struct{ m *memo.Cache[CellResult] }

func newMemoCells() memoCells {
	return memoCells{memo.New[CellResult](memoCellCap, nil, nil)}
}

// GetOrCompute implements CellCache.
func (c memoCells) GetOrCompute(ctx context.Context, addr string, _ runner.Spec,
	compute func(context.Context) (CellResult, error)) (CellResult, error) {
	res, _, err := c.m.GetOrCompute(ctx, addr, func() (CellResult, int64, error) {
		res, err := compute(ctx)
		return res, 1, err
	})
	return res, err
}

// policiedStats fetches runs through the policied grid and returns their
// statistics, positionally aligned with runs.
func (p Params) policiedStats(runs []policiedRun) ([]*pipeline.Stats, error) {
	specs := make([]runner.Spec, len(runs))
	for i, r := range runs {
		specs[i] = r.spec()
	}
	// Cells install only their own policy, so a base-config policy is
	// dropped here — from the cell bodies and from their addresses.
	p.Pipeline.Policy = nil
	if p.Cache == nil {
		p.Cache = policiedMemo
	}
	cells, err := p.runGrid(specs, policiedCell)
	if err != nil {
		return nil, err
	}
	stats := make([]*pipeline.Stats, len(cells))
	for i := range cells {
		stats[i] = cells[i].Stats
	}
	return stats, nil
}

// policiedCell simulates one policied run on gshare, or fetches the
// workload's baseline.
func policiedCell(_ context.Context, p Params, sp runner.Spec) (CellResult, error) {
	w, err := workload.ByName(sp.Workload)
	if err != nil {
		return CellResult{}, err
	}
	var st *pipeline.Stats
	if sp.Variant == policiedBaseline {
		st, err = p.baseStats(w, GshareSpec())
	} else {
		estName, spec, _ := strings.Cut(sp.Variant, "|")
		mk := policiedEstimators[estName]
		if mk == nil {
			return CellResult{}, fmt.Errorf("policied %s: unknown estimator %q", sp.Key(), estName)
		}
		if p.Pipeline.Policy, err = policy.Parse(spec); err != nil {
			return CellResult{}, fmt.Errorf("policied %s: %w", sp.Key(), err)
		}
		st, err = p.runOne(w, GshareSpec(), mk())
	}
	if err != nil {
		return CellResult{}, fmt.Errorf("policied %s: %w", sp.Key(), err)
	}
	return CellResult{Stats: st}, nil
}
