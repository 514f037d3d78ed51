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
// direct simulation carrying all 80 estimators through the pipeline,
// the baseline BenchmarkSweepReplay is compared with.
func BenchmarkSweepDirect(b *testing.B) { benchEval(b, sweepDirect) }

// BenchmarkSweepReplay measures the replay strategy end to end from a
// cold cache: record the estimator-visible event stream once, then
// replay it for all 80 configurations in one pass — the path a fig4 or
// fig5 cell takes. The fresh cache per iteration charges the recording
// to every iteration — this is the worst case; sweeps that share traces
// across experiments (or across benchmark iterations) only pay the
// replay part.
func BenchmarkSweepReplay(b *testing.B) { benchEval(b, sweepReplay) }

// BenchmarkSuiteEvents measures the record/replay strategy on the
// suiteCells shape, from a cold cache: one event recording per
// predictor (the event stream is predictor-dependent), then an
// estimator replay of each.
func BenchmarkSuiteEvents(b *testing.B) { benchEval(b, suiteEvents) }

func benchEval(b *testing.B, eval func() error) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := eval(); err != nil {
			b.Fatal(err)
		}
	}
}

// evalParams is the scale of the evaluations below: gcc at 200k
// committed instructions.
func evalParams() Params {
	p := DefaultParams()
	p.MaxCommitted = 200_000
	return p
}

func sweepDirect() error {
	p := evalParams()
	p.Replay = ReplayOff
	w, _ := workload.ByName("gcc")
	spec, _ := predictorByName("gshare")
	_, err := p.runOne(w, spec, benchEstimators(fig45Configs())...)
	return err
}

func sweepReplay() error {
	p := evalParams()
	p.TraceCache = replay.NewCache(0, nil)
	w, _ := workload.ByName("gcc")
	spec, _ := predictorByName("gshare")
	_, _, err := p.replayEstimators(w, spec, benchEstimators(fig45Configs()))
	return err
}

// suiteCells is the evaluation shape suiteEvents measures: all three
// predictor families over one workload, each with a small mixed
// estimator panel — the per-workload work a table2-style grid does.
var suiteCells = []string{"gshare", "mcfarling", "sag"}

func suitePanel() []conf.Estimator {
	return []conf.Estimator{
		conf.NewJRS(conf.DefaultJRS),
		conf.SatCounters{},
		conf.NewPatternHistory(12),
		conf.NewDistance(3),
	}
}

func suiteEvents() error {
	p := evalParams()
	p.TraceCache = replay.NewCache(0, nil)
	w, _ := workload.ByName("gcc")
	for _, pred := range suiteCells {
		spec, _ := predictorByName(pred)
		if _, err := p.evalEstimators(w, spec, suitePanel()...); err != nil {
			return err
		}
	}
	return nil
}

// table2Serial is the Table 2 grid on one worker. Its recordings come
// from the process-wide trace cache, so after the first call it
// measures the grid's replay and assembly.
func table2Serial() error {
	p := evalParams()
	p.Jobs = 1
	_, err := Table2(p)
	return err
}

// sweepSpace is the whole sweepspace experiment at eight profiles on
// four workers — generation, registration, record, and panel replay
// per workload — from a cold trace cache.
func sweepSpace() error {
	p := sweepParams(8)
	p.Jobs = 4
	p.TraceCache = replay.NewCache(0, nil)
	_, err := SweepSpace(p)
	return err
}

// TestEvalAllocs bounds the heap allocations of whole evaluations.
// Tick allocates nothing in steady state (TestSteadyStateAllocs*), and
// a recording allocates per chunk of events, not per event
// (TestRecorderSteadyStateAllocs), so the counts come from set-up:
// programs, tables, chunks and cells. Each bound
// sits about 10% above the count measured under the race detector,
// which adds allocations of its own, and 25-35% above the plain count.
// A new allocation per event or per fetched branch, hundreds of
// thousands at this scale, fails it.
func TestEvalAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		eval func() error
		max  float64
	}{
		{"SweepDirect", sweepDirect, 520},
		{"SweepReplay", sweepReplay, 590},
		{"SuiteEvents", suiteEvents, 360},
		{"Table2Serial", table2Serial, 1570},
		{"SweepSpace", sweepSpace, 6650},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			n := testing.AllocsPerRun(1, func() {
				if e := tc.eval(); e != nil {
					err = e
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%.0f allocations", n)
			if n > tc.max {
				t.Errorf("%s allocates %.0f times, want at most %.0f", tc.name, n, tc.max)
			}
		})
	}
}

// BenchmarkSweepReplayWarm isolates the replay cost once the trace is
// resident — the steady-state cost of adding one more estimator sweep
// to a cached (workload, predictor) pair: one replay pass driving all
// 80 configurations, as a fig4 or fig5 cell does.
func BenchmarkSweepReplayWarm(b *testing.B) {
	p := evalParams()
	p.TraceCache = replay.NewCache(0, nil)
	w, _ := workload.ByName("gcc")
	spec, _ := predictorByName("gshare")
	if _, _, err := p.traceFor(w, spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.replayEstimators(w, spec, benchEstimators(fig45Configs())); err != nil {
			b.Fatal(err)
		}
	}
}
