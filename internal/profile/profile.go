// Package profile builds the paper's static confidence estimator (§3,
// "Static Estimator") from a training pass's per-site profile.
//
// The static estimator needs per-branch-site *prediction accuracy of the
// underlying branch predictor* — not a plain taken/not-taken profile —
// because confidence concerns whether the predictor will be right, which
// depends on predictor state. The paper obtains this from a predictor
// simulation (or ProfileMe-style hardware feedback); here the profile is
// the per-site accuracy of a pipeline run with site statistics enabled
// (or of its recorded trace), and FromSites thresholds it.
//
// Following the paper, profiles are *self-profiled*: the same program and
// input train and evaluate the estimator, making the reported numbers a
// best case for the static technique.
package profile

import (
	"fmt"
	"sort"

	"specctrl/internal/conf"
	"specctrl/internal/pipeline"
)

// Options configures how FromSites turns a profile into an estimator.
type Options struct {
	// Threshold is the accuracy at or above which a branch site is
	// considered high confidence; the paper uses 0.90.
	Threshold float64
	// MinSamples guards against noisy sites: sites with fewer committed
	// executions than this default to low confidence (0 disables).
	MinSamples uint64
}

// DefaultOptions returns the paper's configuration: a 90% threshold.
func DefaultOptions() Options { return Options{Threshold: 0.90} }

// FromSites builds the static estimator from a site-accuracy profile:
// the Sites of a run with pipeline.Config.CollectSiteStats, or the
// identical fold replay.Trace.Sites takes of a recording of that run.
func FromSites(sites map[int64]*pipeline.SiteStats, opts Options) conf.Static {
	hc := make(map[int64]bool, len(sites))
	for pc, s := range sites {
		if s.Total < opts.MinSamples {
			continue
		}
		if s.Accuracy() >= opts.Threshold {
			hc[pc] = true
		}
	}
	return conf.Static{HighConfidence: hc, Threshold: opts.Threshold}
}

// TuneGoal selects which metric Tune drives toward a target value.
type TuneGoal int

const (
	// GoalSPEC tunes for a target specificity: catch at least the
	// requested fraction of mispredictions as low confidence, marking
	// as few correct predictions low confidence as possible.
	GoalSPEC TuneGoal = iota
	// GoalPVN tunes for a target predictive value of a negative test:
	// make low-confidence marks at least the requested pure, covering
	// as many mispredictions as possible.
	GoalPVN
)

// Tune implements the paper's §5 future-work item: "an algorithm to
// 'tune' static confidence estimation to achieve a particular goal for
// PVN or SPEC". Instead of one fixed accuracy threshold, it chooses the
// set of branch sites to mark low confidence directly from the profile:
//
//   - Sites are sorted by profiled accuracy, least accurate first —
//     the site order that adds the most mispredictions per false alarm.
//   - GoalSPEC: walk the list marking sites low confidence until the
//     marked sites cover at least target of all profiled mispredictions.
//     This maximizes SENS subject to the SPEC floor (greedy-optimal:
//     any other site set reaching the same coverage marks at least as
//     many correct predictions low confidence).
//   - GoalPVN: walk the same list while the running misprediction mass
//     over marked executions stays at or above target; stop before the
//     marked set's purity would fall below it.
//
// The returned estimator is exactly as implementable as the paper's
// static scheme: one hint bit per branch site.
func Tune(sites map[int64]*pipeline.SiteStats, goal TuneGoal, target float64) (conf.Static, error) {
	if target <= 0 || target > 1 {
		return conf.Static{}, fmt.Errorf("profile: tune target %v out of (0,1]", target)
	}
	type site struct {
		pc      int64
		acc     float64
		correct uint64
		total   uint64
	}
	ordered := make([]site, 0, len(sites))
	var totalMisp uint64
	for pc, s := range sites {
		ordered = append(ordered, site{pc: pc, acc: s.Accuracy(), correct: s.Correct, total: s.Total})
		totalMisp += s.Total - s.Correct
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].acc != ordered[j].acc {
			return ordered[i].acc < ordered[j].acc
		}
		return ordered[i].pc < ordered[j].pc // deterministic ties
	})

	// Every site starts high confidence; mark low confidence greedily.
	hc := make(map[int64]bool, len(sites))
	for pc := range sites {
		hc[pc] = true
	}
	var markedMisp, markedTotal uint64
	for _, s := range ordered {
		misp := s.total - s.correct
		switch goal {
		case GoalSPEC:
			if totalMisp == 0 || float64(markedMisp)/float64(totalMisp) >= target {
				return conf.Static{HighConfidence: hc, Threshold: target}, nil
			}
		case GoalPVN:
			// Adding this site must keep the marked set's purity at or
			// above the target.
			newPurity := float64(markedMisp+misp) / float64(markedTotal+s.total)
			if newPurity < target {
				return conf.Static{HighConfidence: hc, Threshold: target}, nil
			}
		default:
			return conf.Static{}, fmt.Errorf("profile: unknown tune goal %d", goal)
		}
		delete(hc, s.pc) // mark low confidence
		markedMisp += misp
		markedTotal += s.total
	}
	return conf.Static{HighConfidence: hc, Threshold: target}, nil
}
