// Package specctrl's root benchmark harness: one benchmark per paper
// table and figure, so `go test -bench=.` regenerates every evaluation
// artifact (at bench scale; use cmd/simctrl for full-scale runs), plus
// micro-benchmarks of the simulator core.
package specctrl

import (
	"context"
	"io"
	"runtime"
	"testing"

	"specctrl/internal/bpred"
	"specctrl/internal/conf"
	"specctrl/internal/experiments"
	"specctrl/internal/obs"
	"specctrl/internal/pipeline"
	"specctrl/internal/runner"
	"specctrl/internal/workload"
)

// benchParams returns experiment parameters sized for benchmarking: big
// enough to be representative, small enough to iterate.
func benchParams() experiments.Params {
	p := experiments.DefaultParams()
	p.MaxCommitted = 200_000
	return p
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig1(benchParams())
	}
}

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig45(benchParams(), experiments.GshareSpec()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig45(benchParams(), experiments.McFarlingSpec()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FigDistance(benchParams(), experiments.GshareSpec(), false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FigDistance(benchParams(), experiments.McFarlingSpec(), false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FigDistance(benchParams(), experiments.GshareSpec(), true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FigDistance(benchParams(), experiments.McFarlingSpec(), true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMisest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Misest(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBoost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Boost(benchParams(), experiments.GshareSpec(), 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineThroughput measures raw simulation speed: committed
// instructions per wall-clock second across the suite on gshare.
func BenchmarkPipelineThroughput(b *testing.B) {
	w, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	prog := w.Build(1 << 30)
	cfg := pipeline.DefaultConfig()
	cfg.MaxCommitted = uint64(b.N)
	cfg.MaxCycles = 0
	cfg.Estimators = []conf.Estimator{conf.NewJRS(conf.DefaultJRS)}
	sim := pipeline.MustNew(cfg, prog, bpred.NewGshare(12))
	b.ResetTimer()
	st, err := sim.Run()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(st.Committed+st.WrongPath)/float64(b.N), "instr/op")
}

func BenchmarkMetricsCmp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MetricsCmp(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCIR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CIR(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJRSMcf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.JRSMcf(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTuned(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Tuned(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationWidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationWidth(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSpecHistory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationSpecHistory(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// passThrough is a CellCache that computes every cell, so benchmarks of
// the policied experiments time simulation rather than hits in the
// process-wide memo those cells use when Params.Cache is nil.
type passThrough struct{}

func (passThrough) GetOrCompute(ctx context.Context, _ string, _ runner.Spec,
	compute func(context.Context) (experiments.CellResult, error)) (experiments.CellResult, error) {
	return compute(ctx)
}

func BenchmarkAblationGating(b *testing.B) {
	p := benchParams()
	p.MaxCommitted = 60_000
	p.Cache = passThrough{}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationGating(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationIndirect(b *testing.B) {
	p := benchParams()
	p.MaxCommitted = 60_000
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationIndirect(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDepth(b *testing.B) {
	p := benchParams()
	p.MaxCommitted = 60_000
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationDepth(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPatterns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Patterns(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSMTStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SMTStudy(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEagerStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.EagerStudy(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAUCStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AUCStudy(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunner measures grid execution through the parallel runner at
// the machine's full width (Jobs = NumCPU) against the serial variant
// below; the ratio is the experiment-level speedup on this machine.
func BenchmarkRunner(b *testing.B) {
	p := benchParams()
	p.Jobs = runtime.NumCPU()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunnerSerial is BenchmarkRunner pinned to one worker.
func BenchmarkRunnerSerial(b *testing.B) {
	p := benchParams()
	p.Jobs = 1
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(p); err != nil {
			b.Fatal(err)
		}
	}
}

// pipelineObsBench runs the simulator hot path with a fixed workload and
// the given observability wiring, reporting instructions per op. The
// trio below (Off / Metrics / Tracer) quantifies the overhead budget
// documented in DESIGN.md: with everything off the only added hot-path
// cost is one integer compare per Tick and one nil check per branch,
// and must stay within 3% of the pre-obs baseline.
func pipelineObsBench(b *testing.B, wire func(*pipeline.Config)) {
	w, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	prog := w.Build(1 << 30)
	cfg := pipeline.DefaultConfig()
	cfg.MaxCommitted = uint64(b.N)
	cfg.MaxCycles = 0
	if wire != nil {
		wire(&cfg)
	}
	cfg.Estimators = []conf.Estimator{conf.NewJRS(conf.DefaultJRS)}
	sim := pipeline.MustNew(cfg, prog, bpred.NewGshare(12))
	b.ResetTimer()
	st, err := sim.Run()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(st.Committed+st.WrongPath)/float64(b.N), "instr/op")
}

// BenchmarkPipelineObsOff is the baseline: no registry, no tracer, no
// progress. Compare against BenchmarkPipelineThroughput to confirm the
// disabled-path cost is in the noise.
func BenchmarkPipelineObsOff(b *testing.B) {
	pipelineObsBench(b, nil)
}

// BenchmarkPipelineObsMetrics enables the live metrics registry and
// progress counters at the default publish interval.
func BenchmarkPipelineObsMetrics(b *testing.B) {
	pipelineObsBench(b, func(cfg *pipeline.Config) {
		cfg.Metrics = obs.NewRegistry()
		cfg.MetricsLabels = obs.Labels{"workload": "gcc", "predictor": "gshare"}
		cfg.Progress = obs.NewProgress()
	})
}

// BenchmarkPipelineObsTracer enables a per-branch structured event sink
// (discarding writer), the most invasive observer: one callback per
// conditional branch.
func BenchmarkPipelineObsTracer(b *testing.B) {
	pipelineObsBench(b, func(cfg *pipeline.Config) {
		cfg.Tracer = obs.NewJSONL(io.Discard)
	})
}
