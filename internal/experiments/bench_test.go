package experiments

import (
	"testing"

	"specctrl/internal/conf"
	"specctrl/internal/replay"
	"specctrl/internal/workload"
)

// fig45Configs is the Fig 4/5 JRS sweep shape: five table sizes, the
// full threshold ladder of 4-bit counters, enhanced indexing — 80
// estimator configurations over one (workload, predictor) pair. This
// is the workload the record/replay layer was built for.
func fig45Configs() []conf.JRSConfig {
	sizes := []int{256, 512, 1024, 2048, 4096}
	var configs []conf.JRSConfig
	for _, n := range sizes {
		for _, t := range thresholds(4) {
			configs = append(configs, conf.JRSConfig{Entries: n, Bits: 4, Threshold: t, Enhanced: true})
		}
	}
	return configs
}

func benchEstimators(cfgs []conf.JRSConfig) []conf.Estimator {
	ests := make([]conf.Estimator, len(cfgs))
	for i, c := range cfgs {
		ests[i] = conf.NewJRS(c)
	}
	return ests
}

// BenchmarkSweepDirect measures the pre-replay evaluation strategy: one
// direct simulation carrying all 80 estimators through the pipeline.
// It is the baseline BenchmarkSweepReplay is gated against (the ≥2×
// pre_replay_seed entries in BENCH_PIPELINE.json).
func BenchmarkSweepDirect(b *testing.B) {
	p := DefaultParams()
	p.MaxCommitted = 200_000
	p.Replay = ReplayOff
	w, _ := workload.ByName("gcc")
	spec, _ := predictorByName("gshare")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.runOne(w, spec, benchEstimators(fig45Configs())...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepReplay measures the replay strategy end to end from a
// cold cache: record the estimator-visible event stream once, then
// replay it for all 80 configurations in one pass — the path a fig4 or
// fig5 cell takes. The fresh cache per iteration charges the recording
// to every iteration — this is the worst case; sweeps that share traces
// across experiments (or across benchmark iterations) only pay the
// replay part.
func BenchmarkSweepReplay(b *testing.B) {
	w, _ := workload.ByName("gcc")
	spec, _ := predictorByName("gshare")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := DefaultParams()
		p.MaxCommitted = 200_000
		p.TraceCache = replay.NewCache(0, nil)
		if _, _, err := p.replayConfs(w, spec, benchEstimators(fig45Configs())); err != nil {
			b.Fatal(err)
		}
	}
}

// suiteCells is the evaluation shape BenchmarkSuiteEvents measures:
// all three predictor families over one workload, each with a small
// mixed estimator panel — the per-workload work a table2-style grid
// does.
var suiteCells = []string{"gshare", "mcfarling", "sag"}

func suitePanel() []conf.Estimator {
	return []conf.Estimator{
		conf.NewJRS(conf.DefaultJRS),
		conf.SatCounters{},
		conf.NewPatternHistory(12),
		conf.NewDistance(3),
	}
}

// BenchmarkSuiteEvents measures the record/replay strategy on that
// shape, from a cold cache: one event recording per predictor (the
// event stream is predictor-dependent), then an estimator replay of
// each.
func BenchmarkSuiteEvents(b *testing.B) {
	w, _ := workload.ByName("gcc")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := DefaultParams()
		p.MaxCommitted = 200_000
		p.TraceCache = replay.NewCache(0, nil)
		for _, pred := range suiteCells {
			spec, _ := predictorByName(pred)
			if _, err := p.evalEstimators(w, spec, suitePanel()...); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSweepReplayWarm isolates the replay cost once the trace is
// resident — the steady-state cost of adding one more estimator sweep
// to a cached (workload, predictor) pair: one replay pass driving all
// 80 configurations, as a fig4 or fig5 cell does.
func BenchmarkSweepReplayWarm(b *testing.B) {
	p := DefaultParams()
	p.MaxCommitted = 200_000
	p.TraceCache = replay.NewCache(0, nil)
	w, _ := workload.ByName("gcc")
	spec, _ := predictorByName("gshare")
	if _, _, err := p.traceFor(w, spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.replayConfs(w, spec, benchEstimators(fig45Configs())); err != nil {
			b.Fatal(err)
		}
	}
}
