// benchgate runs the repository's regression benchmarks and compares
// them against the checked-in baseline (BENCH_PIPELINE.json at the repo
// root). It is the perf equivalent of the test suite: check.sh runs it
// on every commit.
//
// Two properties are gated:
//
//   - wall clock: a benchmark's min-of-count ns/op must stay within
//     -tolerance (default 5%) of the baseline;
//   - allocations: a benchmark whose baseline is allocation-free must
//     stay at exactly zero allocs/op (the simulator hot path's
//     contract, see pipeline's TestSteadyStateAllocs); nonzero
//     baselines get a 1% drift allowance for harness noise.
//
// Min-of-count is the comparison statistic on both sides: the minimum
// is the least noisy estimate of a benchmark's true cost on an
// otherwise-idle machine (benchstat uses the same reasoning). A
// failure triggers up to noiseRetries full re-measurements whose
// results are merged in before the final verdict, so a transient load
// spike — even one outlasting a single re-run — cannot fail the gate
// on its own; suites whose noise floor is inherently above the
// default tolerance carry a wider per-suite bound (see suites).
//
// Wall-clock baselines are machine-specific. After an intentional perf
// change, or when moving the reference machine, refresh with:
//
//	go run ./scripts/benchgate.go -update
//
// and commit the new BENCH_PIPELINE.json alongside the change that
// explains it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
)

// Entry is one benchmark's recorded cost.
type Entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  uint64  `json:"bytes_per_op"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
}

// Baseline is the BENCH_PIPELINE.json document. PreOverhaul preserves
// the pre-optimization measurements for the record (the ≥30% wall-clock
// improvement claim in DESIGN.md is against these numbers); PreReplay
// likewise preserves the direct-simulation sweep cost the record/replay
// layer's ≥2× claim is measured against. -update carries both forward
// untouched.
type Baseline struct {
	Note        string           `json:"note"`
	Benchmarks  map[string]Entry `json:"benchmarks"`
	PreOverhaul map[string]Entry `json:"pre_overhaul_seed,omitempty"`
	PreReplay   map[string]Entry `json:"pre_replay_seed,omitempty"`
}

// suite is one `go test -bench` invocation. Fixed -benchtime iteration
// counts keep per-op work identical between baseline and gate runs.
// tol overrides the -tolerance flag for the suite's benchmarks when
// nonzero: end-to-end runs carry OS-scheduling noise the steady-state
// micro-benchmarks don't see.
type suite struct {
	pkg       string
	bench     string
	benchtime string
	count     int
	tol       float64
}

// suites lists what the gate measures: the end-to-end experiment
// runner, the per-cycle simulator loop (plain, traced, and without
// estimators — the traced entry is the tracer-overhead budget), the
// disabled span-tracing path (whose allocation-free baseline enforces
// that instrumentation costs nothing when -trace-out is absent), the
// synth workload generator (program build cost and the sweepspace
// panel end to end), and
// one representative predictor and estimator micro-benchmark. The
// remaining Predict*/Estimate* benchmarks exist for profiling; gating
// these representatives keeps the gate under ~15 s.
// Iteration counts are sized so each sample runs for roughly half a
// second: short samples of the nanosecond micro-benchmarks scatter by
// ~10% under CPU frequency jitter, while half-second windows average
// it out and make min-of-count reproducible to a couple of percent.
var suites = []suite{
	{".", "^BenchmarkRunnerSerial$", "3x", 3, 0.10},
	{"./internal/experiments", "^BenchmarkSweep(Direct|Replay)$", "3x", 3, 0.10},
	{"./internal/experiments", "^BenchmarkSuiteEvents$", "3x", 3, 0.10},
	{"./internal/experiments", "^BenchmarkSweepSpace$", "3x", 3, 0.10},
	{"./internal/synth", "^BenchmarkSynthBuild$", "1000x", 5, 0.10},
	{"./internal/pipeline", "^(BenchmarkPipelineTick(Traced|NoEstimators)?|BenchmarkPolicyOverhead(Nil|Gate))$", "8000000x", 5, 0},
	{"./internal/obs/span", "^BenchmarkSpanOverhead$", "8000000x", 5, 0},
	{"./internal/bpred", "^BenchmarkPredictGshare$", "20000000x", 5, 0},
	{"./internal/conf", "^BenchmarkEstimateJRS$", "20000000x", 5, 0},
}

// noiseRetries bounds how many full re-measurement rounds a suspected
// regression triggers before the gate fails. Three rounds ride out the
// multi-minute noisy bursts shared machines exhibit while adding no
// cost at all to a clean pass.
const noiseRetries = 3

// benchLine matches one `go test -bench -benchmem` result line, e.g.
// "BenchmarkPipelineTick  1000000  88.62 ns/op  0 B/op  0 allocs/op"
// (the -8 GOMAXPROCS suffix is absent on single-CPU machines).
var benchLine = regexp.MustCompile(`(?m)^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op\s+(\d+) B/op\s+(\d+) allocs/op`)

func main() {
	baselinePath := flag.String("baseline", "BENCH_PIPELINE.json", "baseline file (relative to the current directory)")
	update := flag.Bool("update", false, "rewrite the baseline from this run instead of gating")
	tolerance := flag.Float64("tolerance", 0.05, "allowed fractional ns/op regression")
	flag.Parse()

	measured, tols, err := runSuites()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}

	if *update {
		if err := writeBaseline(*baselinePath, measured); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(1)
		}
		fmt.Printf("benchgate: wrote %s (%d benchmarks)\n", *baselinePath, len(measured))
		return
	}

	base, err := readBaseline(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v (run `go run ./scripts/benchgate.go -update` to create it)\n", err)
		os.Exit(1)
	}
	failures := gate(base.Benchmarks, measured, tols, *tolerance)
	// Retries: transient machine noise rarely repeats across separate
	// runs, a real regression always does — and on shared machines a
	// noisy burst can outlast a single re-measurement. Each round's
	// results are merged in as per-field minima, so extra rounds only
	// lower the false-positive rate: a true regression never produces
	// a sample under the bound, no matter how many rounds run.
	for attempt := 1; len(failures) > 0 && attempt <= noiseRetries; attempt++ {
		fmt.Fprintf(os.Stderr, "benchgate: regression suspected, re-measuring to rule out noise (%d/%d)\n",
			attempt, noiseRetries)
		again, _, err := runSuites()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(1)
		}
		measured = mergeMin(measured, again)
		failures = gate(base.Benchmarks, measured, tols, *tolerance)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchgate: FAIL:", f)
		}
		fmt.Fprintln(os.Stderr, "benchgate: if the regression is intentional, refresh with `go run ./scripts/benchgate.go -update` and commit the new baseline")
		os.Exit(1)
	}
	report(base.Benchmarks, measured)
}

// runSuites executes every suite and folds the output into min-of-count
// entries per benchmark, plus each benchmark's tolerance override.
func runSuites() (map[string]Entry, map[string]float64, error) {
	measured := make(map[string]Entry)
	tols := make(map[string]float64)
	for _, s := range suites {
		cmd := exec.Command("go", "test", "-run", "^$",
			"-bench", s.bench, "-benchmem",
			"-benchtime", s.benchtime, "-count", strconv.Itoa(s.count), s.pkg)
		out, err := cmd.CombinedOutput()
		if err != nil {
			return nil, nil, fmt.Errorf("%s %s: %v\n%s", s.pkg, s.bench, err, out)
		}
		matches := benchLine.FindAllStringSubmatch(string(out), -1)
		if len(matches) == 0 {
			return nil, nil, fmt.Errorf("%s %s: no benchmark results in output:\n%s", s.pkg, s.bench, out)
		}
		for _, m := range matches {
			name := m[1]
			ns, _ := strconv.ParseFloat(m[2], 64)
			bytes, _ := strconv.ParseUint(m[3], 10, 64)
			allocs, _ := strconv.ParseUint(m[4], 10, 64)
			if s.tol > 0 {
				tols[name] = s.tol
			}
			e, seen := measured[name]
			if !seen {
				measured[name] = Entry{NsPerOp: ns, BytesPerOp: bytes, AllocsPerOp: allocs}
				continue
			}
			if ns < e.NsPerOp {
				e.NsPerOp = ns
			}
			if bytes < e.BytesPerOp {
				e.BytesPerOp = bytes
			}
			if allocs < e.AllocsPerOp {
				e.AllocsPerOp = allocs
			}
			measured[name] = e
		}
	}
	return measured, tols, nil
}

// mergeMin folds two measurement sets into their per-field minimum.
func mergeMin(a, b map[string]Entry) map[string]Entry {
	out := make(map[string]Entry, len(a))
	for name, e := range a {
		if o, ok := b[name]; ok {
			if o.NsPerOp < e.NsPerOp {
				e.NsPerOp = o.NsPerOp
			}
			if o.BytesPerOp < e.BytesPerOp {
				e.BytesPerOp = o.BytesPerOp
			}
			if o.AllocsPerOp < e.AllocsPerOp {
				e.AllocsPerOp = o.AllocsPerOp
			}
		}
		out[name] = e
	}
	return out
}

// gate returns one message per violated bound. Both directions of
// coverage drift fail too: a benchmark that disappeared means the
// baseline is stale, a new one means it was never recorded.
func gate(base, measured map[string]Entry, tols map[string]float64, tolerance float64) []string {
	var failures []string
	for _, name := range sortedKeys(base) {
		b := base[name]
		m, ok := measured[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: in baseline but not measured (stale baseline?)", name))
			continue
		}
		tol := tolerance
		if t, ok := tols[name]; ok && t > tol {
			tol = t
		}
		if limit := b.NsPerOp * (1 + tol); m.NsPerOp > limit {
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/op exceeds baseline %.0f ns/op by more than %.0f%%",
				name, m.NsPerOp, b.NsPerOp, tol*100))
		}
		switch {
		case b.AllocsPerOp == 0 && m.AllocsPerOp > 0:
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op, baseline is allocation-free", name, m.AllocsPerOp))
		case b.AllocsPerOp > 0 && m.AllocsPerOp > b.AllocsPerOp+b.AllocsPerOp/100:
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op exceeds baseline %d", name, m.AllocsPerOp, b.AllocsPerOp))
		}
	}
	for _, name := range sortedKeys(measured) {
		if _, ok := base[name]; !ok {
			failures = append(failures, fmt.Sprintf("%s: not in baseline (run -update to record it)", name))
		}
	}
	return failures
}

func report(base, measured map[string]Entry) {
	for _, name := range sortedKeys(measured) {
		m, b := measured[name], base[name]
		delta := 0.0
		if b.NsPerOp > 0 {
			delta = (m.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
		}
		fmt.Printf("benchgate: ok %-35s %14.0f ns/op (%+.1f%% vs baseline)  %d allocs/op\n",
			name, m.NsPerOp, delta, m.AllocsPerOp)
	}
}

func readBaseline(path string) (Baseline, error) {
	var b Baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %v", path, err)
	}
	return b, nil
}

func writeBaseline(path string, measured map[string]Entry) error {
	b := Baseline{
		Note: "Benchmark-regression baseline for scripts/benchgate.go. " +
			"Values are min-of-count on the reference machine; refresh with " +
			"`go run ./scripts/benchgate.go -update` after intentional perf changes.",
		Benchmarks: measured,
	}
	if prev, err := readBaseline(path); err == nil {
		b.PreOverhaul = prev.PreOverhaul
		b.PreReplay = prev.PreReplay
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sortedKeys(m map[string]Entry) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
