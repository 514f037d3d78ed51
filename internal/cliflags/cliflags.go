// Package cliflags declares the command-line flags shared by the
// specctrl binaries (simctrl, simserved, simtrace). Each shared flag's
// name — and, where the semantics coincide, its help text — is defined
// once here, so the binaries stay byte-compatible with each other and
// with the documentation: `-jobs` can never drift into `-workers` in
// one tool only.
//
// All registration functions take an explicit *flag.FlagSet; binaries
// using the global flag set pass flag.CommandLine.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"specctrl/internal/experiments"
	"specctrl/internal/obs"
	"specctrl/internal/obs/span"
	"specctrl/internal/pipeline"
	"specctrl/internal/policy"
	"specctrl/internal/synth"
)

// Flag names shared across binaries. Registration goes through the
// functions below; these constants exist for error messages and tests.
const (
	JobsFlag         = "jobs"
	ShardFlag        = "shard"
	CellsOutFlag     = "cells-out"
	CellsInFlag      = "cells-in"
	CommittedFlag    = "committed"
	MetricsAddrFlag  = "metrics-addr"
	ProgressFlag     = "progress"
	ReplayFlag       = "replay"
	TraceCacheMBFlag = "trace-cache-mb"
	TraceOutFlag     = "trace-out"
	ProfileCellsFlag = "profile-cells"
	SpanSampleFlag   = "span-sample"
	SynthProfileFlag = "synth-profile"
	SynthNFlag       = "synth-n"
	IngestTraceFlag  = "ingest-trace"
	PolicyFlag       = "policy"
)

// Jobs registers -jobs. The default and help text are the caller's:
// simctrl counts parallel grid cells (default all CPUs), simserved
// counts runner-pool width per grid (0 = all CPUs).
func Jobs(fs *flag.FlagSet, def int, usage string) *int {
	return fs.Int(JobsFlag, def, usage)
}

// Committed registers -committed. The default and help text are the
// caller's: the grid tools treat 0 as "the paper default of 2M",
// simtrace records a fixed 500k by default.
func Committed(fs *flag.FlagSet, def uint64, usage string) *uint64 {
	return fs.Uint64(CommittedFlag, def, usage)
}

// Shard registers -shard, the i/n grid-splitting selector.
func Shard(fs *flag.FlagSet) *string {
	return fs.String(ShardFlag, "", "run only shard i of n grid cells, as i/n (requires -cells-out)")
}

// CellsOut registers -cells-out, the computed-cell JSON output path.
func CellsOut(fs *flag.FlagSet) *string {
	return fs.String(CellsOutFlag, "", "write computed grid cells to this JSON file")
}

// CellsIn registers -cells-in, the precomputed-cell JSON input list.
func CellsIn(fs *flag.FlagSet) *string {
	return fs.String(CellsInFlag, "", "comma-separated cell JSON files to reuse instead of simulating")
}

// Replay registers -replay, the estimator-evaluation mode selector.
func Replay(fs *flag.FlagSet) *string {
	return fs.String(ReplayFlag, experiments.ReplayOn,
		"estimator evaluation mode: on (record each simulation once, replay estimator sweeps) or off (simulate every cell directly)")
}

// ParseReplay validates a -replay value and returns the canonical
// Params.Replay string; the empty string means on.
func ParseReplay(v string) (string, error) {
	switch v {
	case "", experiments.ReplayOn:
		return experiments.ReplayOn, nil
	case experiments.ReplayOff:
		return experiments.ReplayOff, nil
	}
	return "", fmt.Errorf("-%s must be %q or %q, got %q",
		ReplayFlag, experiments.ReplayOn, experiments.ReplayOff, v)
}

// TraceCacheMB registers -trace-cache-mb, the in-process replay trace
// cache budget (0 selects replay.DefaultCacheBytes).
func TraceCacheMB(fs *flag.FlagSet) *int {
	return fs.Int(TraceCacheMBFlag, 0,
		"replay trace cache budget in MiB (LRU by retained bytes; 0 = default 256)")
}

// PolicyFlags holds the speculation-control policy flag shared by the
// grid binaries: -policy installs a policy on every simulated
// pipeline's base configuration. Register with RegisterPolicy, then
// call Load after parsing.
type PolicyFlags struct {
	Spec *string
}

// RegisterPolicy registers -policy.
func RegisterPolicy(fs *flag.FlagSet) PolicyFlags {
	return PolicyFlags{
		Spec: fs.String(PolicyFlag, "",
			"speculation-control policy installed on the base pipeline: gate:<t>, throttle:<w0,w1,...> (fetch widths by pending low-confidence branches), or boost:<t,p> (default: none)"),
	}
}

// Load parses -policy into a pipeline.Policy (nil when no policy was
// requested).
func (p PolicyFlags) Load() (pipeline.Policy, error) {
	var spec string
	if p.Spec != nil {
		spec = strings.TrimSpace(*p.Spec)
	}
	if spec == "" {
		return nil, nil
	}
	pol, err := policy.Parse(spec)
	if err != nil {
		return nil, fmt.Errorf("-%s: %w", PolicyFlag, err)
	}
	return pol, nil
}

// Synth bundles the workload-generation flags (docs/WORKLOADS.md):
// -synth-profile registers generator vectors from JSON files,
// -ingest-trace registers recorded branch traces as replayable
// workloads, and -synth-n sizes the sweepspace experiment's generated
// set. Register with RegisterSynth, then call Load after parsing.
type Synth struct {
	Profiles *string
	N        *int
	Traces   *string
}

// RegisterSynth registers -synth-profile, -synth-n and -ingest-trace.
func RegisterSynth(fs *flag.FlagSet) Synth {
	return Synth{
		Profiles: fs.String(SynthProfileFlag, "",
			"comma-separated synth profile JSON files to register as generated workloads (docs/WORKLOADS.md)"),
		N: fs.Int(SynthNFlag, 0,
			"sweepspace: how many latin-hypercube profiles to generate (0 = default 32)"),
		Traces: fs.String(IngestTraceFlag, "",
			"comma-separated SPBT branch-trace files (simtrace -record-branches) to ingest as replayable workloads"),
	}
}

// splitList parses a comma-separated flag value into trimmed non-empty
// entries.
func splitList(v string) []string {
	var out []string
	for _, s := range strings.Split(v, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// Load reads and registers every -synth-profile vector and every
// -ingest-trace file, returning the registered workload names in flag
// order (profiles first) plus the parsed -synth-n. Call it after flag
// parsing in every mode that runs experiments.
func (s Synth) Load() (names []string, n int, err error) {
	if s.N != nil {
		if *s.N < 0 {
			return nil, 0, fmt.Errorf("-%s must be >= 0, got %d", SynthNFlag, *s.N)
		}
		n = *s.N
	}
	if s.Profiles != nil {
		for _, path := range splitList(*s.Profiles) {
			data, err := os.ReadFile(path)
			if err != nil {
				return nil, 0, fmt.Errorf("-%s: %w", SynthProfileFlag, err)
			}
			prof, err := synth.ParseProfile(data)
			if err != nil {
				return nil, 0, fmt.Errorf("-%s %s: %w", SynthProfileFlag, path, err)
			}
			name, err := synth.Register(prof)
			if err != nil {
				return nil, 0, fmt.Errorf("-%s %s: %w", SynthProfileFlag, path, err)
			}
			names = append(names, name)
		}
	}
	if s.Traces != nil {
		for _, path := range splitList(*s.Traces) {
			data, err := os.ReadFile(path)
			if err != nil {
				return nil, 0, fmt.Errorf("-%s: %w", IngestTraceFlag, err)
			}
			name, err := synth.FromTrace(data)
			if err != nil {
				return nil, 0, fmt.Errorf("-%s %s: %w", IngestTraceFlag, path, err)
			}
			names = append(names, name)
		}
	}
	return names, n, nil
}

// LoadProfiles parses the -synth-profile files into vectors without
// registering them — the server-mode client path, which ships vectors
// in the submission body for the server to register.
func (s Synth) LoadProfiles() ([]synth.Profile, error) {
	if s.Profiles == nil {
		return nil, nil
	}
	var profs []synth.Profile
	for _, path := range splitList(*s.Profiles) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("-%s: %w", SynthProfileFlag, err)
		}
		prof, err := synth.ParseProfile(data)
		if err != nil {
			return nil, fmt.Errorf("-%s %s: %w", SynthProfileFlag, path, err)
		}
		profs = append(profs, prof)
	}
	return profs, nil
}

// Trace bundles the span-tracing flags shared by the binaries.
// Register with RegisterTrace, build the tracer with NewTracer after
// parsing, and call Finish once the run is over to write the trace
// file and the slow-cell report.
type Trace struct {
	Out          *string
	ProfileCells *int
	Sample       *float64
}

// RegisterTrace registers -trace-out, -profile-cells and -span-sample.
func RegisterTrace(fs *flag.FlagSet) Trace {
	return Trace{
		Out: fs.String(TraceOutFlag, "",
			"write the run's spans as Chrome trace-event JSON to this file (open in Perfetto or chrome://tracing)"),
		ProfileCells: fs.Int(ProfileCellsFlag, 0,
			"print the N slowest grid cells (wall time, simulated cycles, cache outcome) to stderr after the run"),
		Sample: fs.Float64(SpanSampleFlag, 1,
			"head-sampling fraction of traces to record, in (0, 1]"),
	}
}

// Enabled reports whether the parsed flags ask for span tracing.
func (t Trace) Enabled() bool {
	return (t.Out != nil && *t.Out != "") || (t.ProfileCells != nil && *t.ProfileCells > 0)
}

// NewTracer returns a tracer configured per the parsed flags, or nil —
// the disabled tracer — when no trace flag was given. The zero Trace
// (flags never registered) returns nil.
func (t Trace) NewTracer() *span.Tracer {
	if !t.Enabled() {
		return nil
	}
	opts := span.Options{}
	if t.Sample != nil {
		opts.Sample = *t.Sample
	}
	return span.New(opts)
}

// Finish writes whatever trace outputs the flags requested from the
// finished tracer: the Chrome trace-event file for -trace-out and the
// slow-cell table for -profile-cells (to stderr, announced under prog).
// A nil tracer — tracing never enabled — is a no-op.
func (t Trace) Finish(tr *span.Tracer, prog string, stderr io.Writer) error {
	if tr == nil {
		return nil
	}
	spans := tr.Snapshot()
	if t.Out != nil && *t.Out != "" {
		f, err := os.Create(*t.Out)
		if err != nil {
			return err
		}
		if err := span.WriteChrome(f, spans); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "%s: wrote %d spans to %s (open in Perfetto or chrome://tracing)\n",
			prog, len(spans), *t.Out)
	}
	if t.ProfileCells != nil && *t.ProfileCells > 0 {
		experiments.ProfileCells(stderr, spans, *t.ProfileCells)
	}
	return nil
}

// Obs bundles the two observability flags every long-running binary
// offers. Register with RegisterObs, then call Start after parsing.
type Obs struct {
	MetricsAddr *string
	Progress    *time.Duration
}

// RegisterObs registers -metrics-addr and -progress.
func RegisterObs(fs *flag.FlagSet) Obs {
	return Obs{
		MetricsAddr: fs.String(MetricsAddrFlag, "",
			"serve live metrics/expvar/pprof on this address (e.g. :9090)"),
		Progress: fs.Duration(ProgressFlag, 0,
			"print a heartbeat to stderr at this interval (e.g. 1s; 0 = off)"),
	}
}

// Started holds whatever observability the parsed flags asked for.
// Fields are nil when the corresponding flag was not given.
type Started struct {
	Registry *obs.Registry
	Run      *obs.Progress

	closers []func()
}

// Stop shuts down the metrics server and heartbeat, if running.
func (s *Started) Stop() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// Start brings up the observability the flags requested: an HTTP
// metrics endpoint when -metrics-addr was given (announced on stderr
// under the binary name prog) and a stderr heartbeat when -progress
// was given. tr, which may be nil, is mounted at /debug/traces on the
// metrics endpoint. Call Stop on the result before exiting. The zero
// Obs (flags never registered, as in tests that bypass flag parsing)
// starts nothing.
func (o Obs) Start(prog string, stderr io.Writer, tr *span.Tracer) (*Started, error) {
	s := &Started{}
	if o.MetricsAddr != nil && *o.MetricsAddr != "" {
		s.Registry = obs.NewRegistry()
		srv, err := obs.Serve(*o.MetricsAddr, s.Registry, tr)
		if err != nil {
			return nil, err
		}
		s.closers = append(s.closers, func() { srv.Close() })
		fmt.Fprintf(stderr, "%s: serving metrics on %s/metrics (pprof on /debug/pprof/)\n", prog, srv.URL())
	}
	if o.Progress != nil && *o.Progress > 0 {
		s.Run = obs.NewProgress()
		stop := obs.StartHeartbeat(stderr, *o.Progress, s.Run)
		s.closers = append(s.closers, stop)
	}
	return s, nil
}

// LoadCells reads a -cells-in value: a comma-separated list of cell
// JSON files, merged in order (later files win on key collisions).
func LoadCells(arg string) (map[string]experiments.CellResult, error) {
	merged := map[string]experiments.CellResult{}
	for _, path := range strings.Split(arg, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		cells, err := experiments.UnmarshalCells(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for k, c := range cells {
			merged[k] = c
		}
	}
	return merged, nil
}
