// Package experiments reproduces every table and figure in the paper's
// evaluation. Each experiment has a driver returning structured results
// plus a Render method producing a paper-style text table; cmd/simctrl
// exposes them on the command line (with -jobs N parallel execution and
// -shard i/n cross-machine splitting).
//
// # Grid execution model
//
// Every simulation-backed experiment is a grid of independent cells —
// one per workload × predictor × variant combination; an estimator
// sweep evaluates all of its estimator configurations in one cell, in
// either -replay mode. A driver has three parts:
//
//  1. a spec list ([]runner.Spec) enumerating the cells in the fixed
//     order the old serial loops used;
//  2. a CellFunc that simulates exactly one cell, constructing all of
//     its own state (pipeline, predictor, estimators, workload program)
//     and drawing no random numbers at run time;
//  3. an assemble step that folds the returned []CellResult — which
//     runGrid keeps positionally aligned with the spec list — into the
//     experiment's result struct.
//
// Because cells share no mutable state and assembly iterates in spec
// order, rendered output is byte-identical at Jobs: 1 and Jobs: N (see
// the runner package for the full contract, and docs/REGENERATING.md
// for the regeneration workflow).
//
// # Adding a new experiment
//
// Write the driver as specs + cell + assemble (an estimator sweep needs
// no cell of its own: estimatorGrid runs one cell per (workload,
// predictor) from an estimator builder, and suiteStats is its
// one-cell-per-benchmark shape), give each cell a stable spec key
// ("experiment/workload/predictor/variant") and register the driver
// (registry.go), which puts it in simctrl, simserved and specbench's
// per-experiment timings. Never fold
// per-cell results into shared accumulators inside the cell — return
// them in CellResult (Stats, or Extra for derived scalars) and
// accumulate during assembly.
//
// Experiment index (see DESIGN.md for the full mapping):
//
//	Table1   program characteristics and speculation ratios
//	Table2   four estimators × three predictors, suite means
//	Table3   Both-Strong vs Either-Strong on McFarling, per benchmark
//	Table4   misprediction-distance estimator vs the others
//	Fig1     analytic PVP/PVN parameter curves
//	Fig3     JRS base vs enhanced threshold sweep (gshare)
//	Fig4/5   JRS design space (entries × threshold) on gshare/McFarling
//	Fig6..9  precise/perceived misprediction distance curves
//	Misest   confidence mis-estimation clustering (§4.1)
//	Boost    consecutive-low-confidence boosting (§4.2)
package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"specctrl/internal/bpred"
	"specctrl/internal/conf"
	"specctrl/internal/isa"
	"specctrl/internal/obs"
	"specctrl/internal/obs/span"
	"specctrl/internal/pipeline"
	"specctrl/internal/profile"
	"specctrl/internal/replay"
	"specctrl/internal/runner"
	"specctrl/internal/workload"
)

// Params scales and observes every experiment. The machine itself is
// fixed: the paper's predictor geometry is declared in internal/bpred
// (GshareSpec, McFarlingSpec and SAgSpec build it), the static
// estimator's threshold is profile.DefaultOptions, and every workload
// is built long enough (buildIters) that none halts before
// MaxCommitted.
type Params struct {
	// MaxCommitted caps committed instructions per simulation run.
	MaxCommitted uint64
	// Pipeline is the simulator configuration.
	Pipeline pipeline.Config
	// Progress, when non-nil, receives one line per simulation run.
	Progress func(msg string)
	// Obs, when non-nil, receives live metrics from every simulation
	// run, labelled {workload, predictor} (and estimator for the
	// confidence gauges), plus a per-run IPC histogram.
	Obs *obs.Registry
	// Run, when non-nil, gets one live counter block per running
	// single-thread simulation for heartbeat printing.
	Run *obs.Progress

	// Ctx, when non-nil, cancels in-flight experiment grids at the
	// next cell boundary (cells that completed first are already in
	// Record) and ends a cell's wait on another cell's trace recording.
	Ctx context.Context
	// Jobs is the grid worker-pool width; values <= 1 run serially.
	// Output is byte-identical for every value of Jobs.
	Jobs int
	// Shard restricts grid execution to every Count-th cell for
	// cross-machine sweeps; drivers then return ErrShardOnly after
	// recording their cells into Record.
	Shard runner.Shard
	// Cells, when non-nil, supplies precomputed cell results by spec
	// key (the merge path for sharded sweeps): matching cells are
	// reused instead of simulated.
	Cells map[string]CellResult
	// Record, when non-nil, receives every computed or reused cell
	// result, for dumping with -cells-out.
	Record *CellStore
	// Cache, when non-nil, memoizes cell results by content address
	// (CellAddress): cells found in the cache are served instead of
	// simulated, and computed cells are stored through it. Cells
	// preloaded via Cells take precedence. internal/serve supplies the
	// on-disk singleflight implementation.
	Cache CellCache

	// Replay selects how experiments evaluate their estimators: "" or
	// ReplayOn records each suite (workload, predictor, pipeline)
	// simulation once and replays estimator configurations against the
	// recorded branch-event trace (a workload outside the suite
	// simulates directly: see replayActive); ReplayOff forces direct
	// simulation of every cell (the escape hatch the differential smoke in scripts/check.sh
	// uses). Rendered output is byte-identical in both modes; only
	// wall-clock changes. Both modes enumerate the same grid cells, so
	// shard and merge machines may run different modes.
	Replay string
	// TraceCache holds recorded branch-event traces for replay; nil
	// selects a process-wide shared cache with replay.DefaultCacheBytes
	// of capacity and no metrics. Long-running servers pass their own
	// cache to bound memory and publish hit/eviction counters.
	TraceCache *replay.Cache

	// SynthN is how many latin-hypercube profiles the sweepspace
	// experiment generates (zero selects DefaultSynthN). It changes
	// which cells a sweepspace grid enumerates.
	SynthN int
	// SynthWorkloads names extra dynamically registered workloads
	// (synth profiles from -synth-profile, ingested traces from
	// -ingest-trace) the sweepspace experiment appends to its generated
	// set. Names must already be registered in internal/workload when
	// the experiment runs.
	SynthWorkloads []string

	// Tracer, when non-nil, records spans for every grid cell (queue
	// wait, run, record/replay/cache phases) and the grid's assembly.
	// Nil disables tracing at the cost of one nil-check per cell.
	Tracer *span.Tracer
	// SpanParent parents this run's spans (e.g. simctrl's per-
	// experiment root, or the serve daemon's per-job span joined to the
	// client's trace). When invalid, traced grids open their own root.
	SpanParent span.Context

	// cellKey is the spec key of the grid cell these Params run in, set
	// by runGrid ("" outside a cell). It names the cell's direct runs
	// in the progress view.
	cellKey string
}

// Replay mode values for Params.Replay and the shared -replay flag.
const (
	// ReplayOn records each suite pair once and replays estimators
	// (the default; "" means the same).
	ReplayOn = "on"
	// ReplayOff disables trace caching: every cell simulates directly.
	ReplayOff = "off"
)

// DefaultParams returns the paper's pipeline at a laptop-scale run
// length (raise MaxCommitted for tighter confidence intervals), with
// no observers, serial grids and trace replay on.
func DefaultParams() Params {
	cfg := pipeline.DefaultConfig()
	cfg.MaxCycles = 4_000_000_000
	return Params{
		MaxCommitted: 2_000_000,
		Pipeline:     cfg,
	}
}

// TestParams returns a reduced configuration for unit tests.
func TestParams() Params {
	p := DefaultParams()
	p.MaxCommitted = 120_000
	return p
}

func (p Params) progress(format string, args ...interface{}) {
	if p.Progress != nil {
		p.Progress(fmt.Sprintf(format, args...))
	}
}

// PredictorSpec names a predictor configuration and builds fresh
// instances of it (every run needs untrained tables).
type PredictorSpec struct {
	Name string
	New  func() bpred.Predictor
	// HistBits is the history length the pattern estimator should
	// classify for this predictor.
	HistBits uint
}

// GshareSpec is the paper's speculative gshare configuration.
func GshareSpec() PredictorSpec {
	return PredictorSpec{
		Name:     "gshare",
		New:      func() bpred.Predictor { return bpred.NewGshare(bpred.GshareBits) },
		HistBits: bpred.GshareBits,
	}
}

// McFarlingSpec is the paper's speculative McFarling configuration.
func McFarlingSpec() PredictorSpec {
	return PredictorSpec{
		Name:     "mcfarling",
		New:      func() bpred.Predictor { return bpred.NewMcFarling(bpred.McFarlingBits) },
		HistBits: bpred.McFarlingBits,
	}
}

// SAgSpec is the paper's non-speculative SAg configuration.
func SAgSpec() PredictorSpec {
	return PredictorSpec{
		Name:     "sag",
		New:      func() bpred.Predictor { return bpred.NewSAg(bpred.SAgBHTBits, bpred.SAgHistBits) },
		HistBits: bpred.SAgHistBits,
	}
}

// AllPredictors returns the three specs in the paper's column order.
func AllPredictors() []PredictorSpec {
	return []PredictorSpec{GshareSpec(), McFarlingSpec(), SAgSpec()}
}

// SatCntFor returns the saturating-counters estimator variant matching
// the predictor (§3.3.1: McFarling uses the two-component variant).
func SatCntFor(spec PredictorSpec, variant conf.McFarlingVariant) conf.Estimator {
	if spec.Name == "mcfarling" {
		return conf.SatCountersMcFarling{Variant: variant}
	}
	return conf.SatCounters{}
}

// ipcBounds buckets per-run IPC observations for the suite histogram.
var ipcBounds = []float64{0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0}

// buildIters is every workload's outer-iteration count: large enough
// that no program halts before any run's MaxCommitted.
const buildIters = 1 << 30

// progCache memoizes Workload.Build results across grid cells. Cells
// are isolated by contract, but an isa.Program is immutable once built
// (the simulator copies the data image into its own memory and only
// reads Code), so every cell of the same workload can share one build.
// Build is deterministic per name, making a cache hit
// indistinguishable from a rebuild; profiles showed the per-cell
// builder cost at ~5% of a full grid run. It is not singleflight: cells
// that miss at once may each build, and LoadOrStore keeps one build.
var progCache sync.Map // workload name → *isa.Program

// buildProgram returns w.Build(buildIters), memoized per workload
// name. Seeded alternative-input builds (BuildSeeded) are not cached;
// only xinput uses them, once per grid.
func buildProgram(w workload.Workload) *isa.Program {
	if p, ok := progCache.Load(w.Name); ok {
		return p.(*isa.Program)
	}
	p, _ := progCache.LoadOrStore(w.Name, w.Build(buildIters))
	return p.(*isa.Program)
}

// runOne simulates one workload on one predictor with the given
// estimators and returns the statistics. Every direct single-thread
// simulation goes through it (cells that change the machine override
// p.Pipeline). It, the smt cells and trace recordings run inside
// simulate's bracket, so every direct run opens one span, prints a
// progress line and counts in specctrl_runs_total. When Params carries
// an obs registry or progress view, the run publishes live metrics
// under {workload, predictor} labels.
func (p Params) runOne(w workload.Workload, spec PredictorSpec, ests ...conf.Estimator) (*pipeline.Stats, error) {
	return p.runProgram(w.Name, buildProgram(w), spec, ests...)
}

// runProgram is runOne on a given build of the named workload.
func (p Params) runProgram(name string, prog *isa.Program, spec PredictorSpec, ests ...conf.Estimator) (*pipeline.Stats, error) {
	cfg := p.Pipeline
	// Per-cell estimators come first so Stats.Confidence indices match
	// the ests argument; estimators configured on Params.Pipeline (hashed
	// into CellAddress) ride along at the tail.
	if base := p.Pipeline.Estimators; len(base) > 0 {
		combined := make([]conf.Estimator, 0, len(ests)+len(base))
		cfg.Estimators = append(append(combined, ests...), base...)
	} else {
		cfg.Estimators = ests
	}
	return p.runPipeline(simulateRun, name, prog, spec, cfg, len(ests), nil)
}

// runKind names what a direct run is for: the span it opens and the
// verb its progress line and errors start with.
type runKind struct{ span, verb string }

var (
	// simulateRun is a run whose statistics a cell reads.
	simulateRun = runKind{span: "simulate", verb: "run"}
	// recordRun records a (workload, predictor) pair's branch events.
	recordRun = runKind{span: "record", verb: "record"}
)

// simulate brackets one direct run with the bookkeeping every direct
// run shares, whatever it simulates: a kind.span span under the cell, a
// progress line, and one count in specctrl_runs_total once run
// succeeds. run returns the simulated cycles, which the span records,
// and may annotate the span itself. A simulateRun's span and line also
// carry its estimator count.
func (p Params) simulate(kind runKind, name, predictor string, estimators int, run func(*span.Span) (cycles uint64, err error)) error {
	attrs := []span.Attr{span.Str("workload", name), span.Str("predictor", predictor)}
	line := fmt.Sprintf("%s %-9s on %-9s", kind.verb, name, predictor)
	if kind == simulateRun {
		attrs = append(attrs, span.Int("estimators", int64(estimators)))
		line += fmt.Sprintf(" (%d estimators)", estimators)
	}
	rs := p.Tracer.Child(p.SpanParent, kind.span, attrs...)
	defer rs.End()
	p.progress("%s", line)
	cycles, err := run(rs)
	if err != nil {
		return err
	}
	rs.SetAttrs(span.Int("cycles", int64(cycles)))
	if p.Obs != nil {
		p.Obs.Counter("specctrl_runs_total", nil).Inc()
	}
	return nil
}

// runPipeline runs prog on a fresh spec predictor under cfg to
// MaxCommitted, inside simulate's bracket. While it runs it publishes
// live metrics under {workload, predictor} labels and its own progress
// counters; once it ends it observes the run's IPC. done, when non-nil,
// runs inside the bracket after a successful run, so it can annotate
// the run's span or fail the run.
func (p Params) runPipeline(kind runKind, name string, prog *isa.Program, spec PredictorSpec, cfg pipeline.Config, estimators int, done func(*span.Span) error) (*pipeline.Stats, error) {
	cfg.MaxCommitted = p.MaxCommitted
	if p.Obs != nil {
		cfg.Metrics = p.Obs
		cfg.MetricsLabels = obs.Labels{"workload": name, "predictor": spec.Name}
	}
	var st *pipeline.Stats
	err := p.simulate(kind, name, spec.Name, estimators, func(rs *span.Span) (uint64, error) {
		run := p.Run.StartRun(p.runName(kind, name, spec.Name), p.MaxCommitted)
		defer run.End()
		cfg.Progress = run
		sim, err := pipeline.New(cfg, prog, spec.New())
		if err != nil {
			return 0, fmt.Errorf("%s %s/%s: %w", kind.verb, name, spec.Name, err)
		}
		if st, err = sim.Run(); err != nil {
			return 0, err
		}
		if done != nil {
			if err := done(rs); err != nil {
				return 0, err
			}
		}
		return st.Cycles, nil
	})
	if err != nil {
		return nil, err
	}
	if p.Obs != nil {
		p.Obs.Histogram("specctrl_run_ipc", obs.Labels{"predictor": spec.Name}, ipcBounds).
			Observe(st.IPC())
	}
	return st, nil
}

// runName names a direct run in the progress view. A recording is
// named by its trace, "record <workload>/<predictor>", because every
// cell that replays the pair shares it; any other run by its cell's
// key, so the policied, depth and input variants of one pair print
// distinct lines. A run outside a grid falls back to the pair.
func (p Params) runName(kind runKind, name, predictor string) string {
	switch {
	case kind == recordRun:
		return "record " + name + "/" + predictor
	case p.cellKey != "":
		return p.cellKey
	}
	return name + "/" + predictor
}

// staticFor builds the static estimator for one (workload, predictor)
// pair from its site profile (sitesFor): a fold of the pair's recorded
// trace when replay applies, a profiling simulation otherwise.
func (p Params) staticFor(w workload.Workload, spec PredictorSpec) (conf.Static, error) {
	sites, err := p.sitesFor(w, spec)
	if err != nil {
		return conf.Static{}, err
	}
	return profile.FromSites(sites, profile.DefaultOptions()), nil
}

// suite returns the benchmark suite (indirection point for tests).
func suite() []workload.Workload { return workload.Suite() }

// pct formats a ratio as a percentage column.
func pct(v float64) string { return fmt.Sprintf("%3.0f%%", v*100) }

// pct1 formats a ratio as a percentage with one decimal.
func pct1(v float64) string { return fmt.Sprintf("%5.1f%%", v*100) }

// header renders an underlined table title.
func header(title string) string {
	return title + "\n" + strings.Repeat("=", len(title)) + "\n"
}
