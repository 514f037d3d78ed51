package experiments

import (
	"fmt"

	"specctrl/internal/conf"
	"specctrl/internal/memo"
	"specctrl/internal/obs"
	"specctrl/internal/obs/span"
	"specctrl/internal/pipeline"
	"specctrl/internal/replay"
	"specctrl/internal/workload"
)

// Record-once / replay-many estimator evaluation.
//
// Estimators are passive observers (see internal/replay's package
// comment), so the experiments layer simulates each (workload,
// predictor, pipeline identity) at most once — recording the
// estimator-visible branch-event stream into a content-addressed cache
// keyed by TraceAddress — and evaluates every estimator configuration
// by replaying the recording. Because TraceAddress excludes the
// experiment, variant, and estimator identity, the trace recorded for
// one experiment serves every other: a full `-exp all` run simulates
// each (workload, predictor) pair once and replays everything else.
//
// evalEstimators is the one place that picks trace replay or direct
// simulation (replayActive); estimatorGrid's cells and the few
// hand-written cells that need Stats for a fixed estimator list call it.

// replayActive reports whether replay-backed evaluation applies under
// these parameters. Direct simulation is kept for the explicit
// ReplayOff escape hatch, for configurations whose observation side
// channels need the real run (base-config estimators or tracers,
// site-statistics collection), and for policied pipelines: a
// speculation-control policy perturbs fetch timing, so the
// estimator-visible event stream is no longer the unpolicied recording.
func (p Params) replayActive() bool {
	if p.Replay == ReplayOff {
		return false
	}
	return len(p.Pipeline.Estimators) == 0 &&
		p.Pipeline.Tracer == nil &&
		p.Pipeline.Policy == nil &&
		!p.Pipeline.CollectSiteStats
}

// defaultTraceCache backs Params with a nil TraceCache: one shared
// process-wide cache, metrics-less, with the default byte budget.
var defaultTraceCache = replay.NewCache(0, nil)

func (p Params) traceCache() *replay.Cache {
	if p.TraceCache != nil {
		return p.TraceCache
	}
	return defaultTraceCache
}

// recordTrace simulates one (workload, predictor) pair with the trace
// recorder attached and returns the recording plus the run's base
// statistics. The recorder reports high confidence on every branch, so
// the base statistics are identical to an estimator-less run; its
// Confidence entry is stripped before the stats are shared. The
// recording is therefore the pair's default run: baseStats serves its
// stats and sitesFor its site profile to every cell that would
// otherwise simulate that run again.
func (p Params) recordTrace(w workload.Workload, spec PredictorSpec) (*replay.Trace, *pipeline.Stats, error) {
	rec := replay.NewRecorder()
	cfg := p.Pipeline
	cfg.Estimators = []conf.Estimator{rec}
	cfg.Tracer = rec
	var tr *replay.Trace
	st, err := p.runPipeline(recordRun, w.Name, buildProgram(w), spec, cfg, 0, func(rs *span.Span) error {
		var err error
		if tr, err = rec.Trace(); err != nil {
			return fmt.Errorf("record %s/%s: %w", w.Name, spec.Name, err)
		}
		rs.SetAttrs(span.Int("events", int64(tr.Events())))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	st.Confidence = nil
	return tr, st, nil
}

// traceFor returns the (workload, predictor) trace and base stats,
// recording them through the trace cache on a miss (singleflight: one
// recording no matter how many cells want it first). When traced, the
// cache consultation gets a "trace" span whose outcome attribute says
// whether the trace was resident ("hit"), freshly recorded ("record"),
// or shared from another cell's in-flight recording ("wait").
func (p Params) traceFor(w workload.Workload, spec PredictorSpec) (*replay.Trace, *pipeline.Stats, error) {
	var ts *span.Span
	if p.Tracer != nil {
		ts = p.Tracer.Child(p.SpanParent, "trace",
			span.Str("workload", w.Name), span.Str("predictor", spec.Name))
		defer ts.End()
	}
	tr, st, outcome, err := p.traceCache().GetOrRecord(p.ctx(), p.TraceAddress(w.Name, spec),
		func() (*replay.Trace, *pipeline.Stats, error) {
			return p.recordTrace(w, spec)
		})
	if ts != nil {
		// The trace span calls this call's own recording "record".
		if outcome == memo.Compute {
			outcome = "record"
		}
		ts.SetAttrs(span.Str("outcome", string(outcome)))
	}
	return tr, st, err
}

// replayEventBounds buckets per-replay event counts (one observation
// per replay pass) for the specctrl_replay_events histogram.
var replayEventBounds = []float64{1e4, 1e5, 1e6, 3e6, 1e7, 3e7, 1e8}

// replayConfs replays ests against the pair's recorded trace and
// returns the per-estimator statistics plus the base run's stats.
func (p Params) replayConfs(w workload.Workload, spec PredictorSpec, ests []conf.Estimator) ([]pipeline.ConfStats, *pipeline.Stats, error) {
	tr, base, err := p.traceFor(w, spec)
	if err != nil {
		return nil, nil, err
	}
	var rs *span.Span
	if p.Tracer != nil {
		rs = p.Tracer.Child(p.SpanParent, "replay",
			span.Str("workload", w.Name), span.Str("predictor", spec.Name),
			span.Int("estimators", int64(len(ests))))
	}
	confs := replay.Replay(tr, ests)
	if rs != nil {
		rs.SetAttrs(span.Int("events", int64(tr.Events())))
		rs.End()
	}
	if p.Obs != nil {
		p.Obs.Histogram("specctrl_replay_events", obs.Labels{"predictor": spec.Name}, replayEventBounds).
			Observe(float64(tr.Events()))
	}
	return confs, base, nil
}

// replayStats assembles the Stats a direct simulation with confs'
// estimators attached would have produced: the base run's
// estimator-independent fields, the replayed per-estimator statistics,
// and — because the simulator mirrors the *first* estimator's quadrants
// into Stats.CommittedQ/AllQ — the first replayed quadrants in place of
// the base run's.
func replayStats(base *pipeline.Stats, confs []pipeline.ConfStats) *pipeline.Stats {
	st := *base
	st.Confidence = confs
	if len(confs) > 0 {
		st.AllQ = confs[0].AllQ
		st.CommittedQ = confs[0].CommittedQ
	}
	return &st
}

// evalEstimators is the replay-aware equivalent of
// runOne(w, spec, ests...): grid cells that only need Stats for a fixed
// estimator list call it and transparently share one recorded
// simulation per (workload, predictor) across cells and experiments.
func (p Params) evalEstimators(w workload.Workload, spec PredictorSpec, ests ...conf.Estimator) (*pipeline.Stats, error) {
	if !p.replayActive() {
		return p.runOne(w, spec, ests...)
	}
	if len(ests) == 0 {
		return p.baseStats(w, spec)
	}
	confs, base, err := p.replayConfs(w, spec, ests)
	if err != nil {
		return nil, err
	}
	return replayStats(base, confs), nil
}

// baseStats returns the statistics of the pair's estimator-less run,
// equal field for field to runOne(w, spec). When replay applies, that
// run is the recording itself (see recordTrace), so the stats are a
// copy of the trace cache's base stats and cost no simulation of their
// own; otherwise the run simulates.
func (p Params) baseStats(w workload.Workload, spec PredictorSpec) (*pipeline.Stats, error) {
	if !p.replayActive() {
		return p.runOne(w, spec)
	}
	_, base, err := p.traceFor(w, spec)
	if err != nil {
		return nil, err
	}
	st := *base
	// A run without estimators reports an empty, not a nil, list.
	st.Confidence = []pipeline.ConfStats{}
	return &st, nil
}

// sitesFor returns the pair's per-branch-site prediction accuracy: the
// static estimator's profile. When replay applies it is a fold of the
// recording's committed fetches (replay.Trace.Sites), which is the
// profile the recorded run would have collected; otherwise a profiling
// simulation collects it.
func (p Params) sitesFor(w workload.Workload, spec PredictorSpec) (map[int64]*pipeline.SiteStats, error) {
	if !p.replayActive() {
		p.Pipeline.CollectSiteStats = true
		st, err := p.runOne(w, spec)
		if err != nil {
			return nil, fmt.Errorf("profile %s/%s: %w", w.Name, spec.Name, err)
		}
		return st.Sites, nil
	}
	tr, _, err := p.traceFor(w, spec)
	if err != nil {
		return nil, err
	}
	return tr.Sites(), nil
}
