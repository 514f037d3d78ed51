package experiments

import (
	"context"
	"fmt"
	"strings"

	"specctrl/internal/bpred"
	"specctrl/internal/conf"
	"specctrl/internal/metrics"
	"specctrl/internal/obs"
	"specctrl/internal/pipeline"
	"specctrl/internal/replay"
	"specctrl/internal/runner"
	"specctrl/internal/workload"
)

// BoostRow reports the boosted PVN for one run depth k (§4.2): given k
// consecutive committed low-confidence estimates, the probability that at
// least one of those k branches really was mispredicted — the
// pipeline-state signal an SMT or eager-execution machine would act on —
// compared against the Bernoulli approximation 1-(1-PVN)^k.
type BoostRow struct {
	K            int
	Groups       uint64  // k-deep low-confidence runs observed
	Hit          uint64  // runs containing >= 1 misprediction
	MeasuredPVN  float64 // Hit / Groups
	BernoulliPVN float64
}

// BoostResult holds the boosting measurement for one estimator/predictor
// configuration over the whole suite.
type BoostResult struct {
	Estimator string
	Predictor string
	BasePVN   float64 // single-event PVN of the estimator
	Rows      []BoostRow
}

// boostFold accumulates, for every depth k <= maxK, the number of
// length-k runs of consecutive committed low-confidence estimates and
// how many of them contained at least one misprediction. add folds one
// committed branch at a time, so no event is ever retained: a direct
// run feeds it through the obs.Tracer hook (Branch), a recorded run
// through a walk over the trace's committed fetches.
type boostFold struct {
	groups, hits []uint64 // indexed k-1
	// run is the current run of low-confidence events, and sinceMisp
	// the number of events since the last misprediction (0 = this one);
	// both saturate at maxK, beyond which they no longer matter.
	run, sinceMisp int
}

func newBoostFold(maxK int) *boostFold {
	return &boostFold{groups: make([]uint64, maxK), hits: make([]uint64, maxK), sinceMisp: maxK}
}

// Branch implements obs.Tracer: it adds each committed branch, whose
// HighConf is the first estimator's estimate, and skips wrong-path
// ones.
func (f *boostFold) Branch(e obs.BranchEvent) {
	if !e.WrongPath {
		f.add(e.HighConf, e.Pred != e.Outcome)
	}
}

// add folds the next committed branch. The last k branches form a
// low-confidence group when k <= run, and the group holds a
// misprediction when the most recent one is among those k branches
// (sinceMisp < k).
func (f *boostFold) add(highConf, mispredicted bool) {
	maxK := len(f.groups)
	if highConf {
		f.run = 0
	} else if f.run < maxK {
		f.run++
	}
	if mispredicted {
		f.sinceMisp = 0
	} else if f.sinceMisp < maxK {
		f.sinceMisp++
	}
	for k := 1; k <= f.run; k++ {
		f.groups[k-1]++
		if f.sinceMisp < k {
			f.hits[k-1]++
		}
	}
}

// Close implements obs.Tracer.
func (f *boostFold) Close() error { return nil }

// Boost measures boosting for the saturating-counters estimator on the
// given predictor (the paper's motivating configuration: an inexpensive
// estimator whose PVN boosting lifts toward 50%).
func Boost(p Params, spec PredictorSpec, maxK int) (*BoostResult, error) {
	if maxK < 1 || maxK > 8 {
		return nil, fmt.Errorf("boost: k depth %d out of range", maxK)
	}
	// Each cell folds its run's committed branches into per-k group
	// counts (boostFold): the counts travel in CellResult.Extra, so a
	// sharded dump stays small and no event log is ever kept.
	cell := func(_ context.Context, p Params, sp runner.Spec) (CellResult, error) {
		w, err := workload.ByName(sp.Workload)
		if err != nil {
			return CellResult{}, err
		}
		est := SatCntFor(spec, conf.BothStrong)
		fold := newBoostFold(maxK)
		var st *pipeline.Stats
		if p.replayActive(w) {
			// The estimator is stateless, so its estimate of each
			// committed fetch is recomputed from the recorded Info.
			var tr *replay.Trace
			if tr, st, err = p.replayEstimators(w, spec, []conf.Estimator{est}); err == nil {
				tr.Committed(func(pc int64, info bpred.Info, correct bool) {
					fold.add(est.Estimate(pc, info), !correct)
				})
			}
		} else {
			p.Pipeline.Tracer = obs.MultiSink(fold, p.Pipeline.Tracer)
			st, err = p.runOne(w, spec, est)
		}
		if err != nil {
			return CellResult{}, fmt.Errorf("boost %s/%s: %w", w.Name, spec.Name, err)
		}
		extra := make(map[string]float64, 2*maxK)
		for k := 1; k <= maxK; k++ {
			extra[fmt.Sprintf("groups_k%d", k)] = float64(fold.groups[k-1])
			extra[fmt.Sprintf("hits_k%d", k)] = float64(fold.hits[k-1])
		}
		return CellResult{Stats: st, Extra: extra}, nil
	}
	cells, err := p.runGrid(suiteSpecs("boost", spec, fmt.Sprintf("satcnt-k%d", maxK)), cell)
	if err != nil {
		return nil, err
	}
	est := SatCntFor(spec, conf.BothStrong)
	groups := make([]uint64, maxK)
	hits := make([]uint64, maxK)
	var baseQ []metrics.Quadrant
	for _, c := range cells {
		for k := 1; k <= maxK; k++ {
			groups[k-1] += uint64(c.Extra[fmt.Sprintf("groups_k%d", k)])
			hits[k-1] += uint64(c.Extra[fmt.Sprintf("hits_k%d", k)])
		}
		baseQ = append(baseQ, c.Stats.Confidence[0].CommittedQ)
	}
	base := metrics.AggregateNormalized(baseQ).Compute().PVN
	res := &BoostResult{Estimator: est.Name(), Predictor: spec.Name, BasePVN: base}
	for k := 1; k <= maxK; k++ {
		row := BoostRow{K: k, Groups: groups[k-1], Hit: hits[k-1],
			BernoulliPVN: metrics.BoostedPVN(base, k)}
		if row.Groups > 0 {
			row.MeasuredPVN = float64(row.Hit) / float64(row.Groups)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints measured vs Bernoulli boosted PVN per depth.
func (r *BoostResult) Render() string {
	var b strings.Builder
	b.WriteString(header(fmt.Sprintf("Boosting (§4.2): %s on %s, base PVN %s",
		r.Estimator, r.Predictor, pct1(r.BasePVN))))
	fmt.Fprintf(&b, "%3s %12s %12s %10s %12s\n", "k", "lc-runs", "with-misp", "measured", "1-(1-pvn)^k")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%3d %12d %12d %9s %11s\n",
			row.K, row.Groups, row.Hit, pct1(row.MeasuredPVN), pct1(row.BernoulliPVN))
	}
	return b.String()
}
