package experiments

import (
	"strings"
	"testing"

	"specctrl/internal/replay"
)

// TestReplayRenderMatchesDirect is the experiments-level exactness
// gate: the same experiment rendered under record/replay evaluation
// and under direct simulation must be byte-identical. The selection
// covers the replay-backed grid shapes — suite sweeps with stateful
// sweep estimators (fig3), small fixed estimator sets (table3),
// profiling-dependent builders (table2's static column), evalEstimators
// cells with a training profiler (patterns), a grouped Distance sweep on
// the event tier (table4), one singleton of each threshold-grouped
// family (cir), and the cells served straight from a recording: base
// stats (table1, abl-spechist, abl-indirect) and site profiles (tuned,
// xinput).
func TestReplayRenderMatchesDirect(t *testing.T) {
	for _, exp := range []string{"table2", "table3", "fig3", "patterns", "table4", "cir",
		"table1", "abl-spechist", "abl-indirect", "tuned", "xinput"} {
		t.Run(exp, func(t *testing.T) {
			direct := smallParams()
			direct.Replay = ReplayOff
			want, err := Run(exp, direct)
			if err != nil {
				t.Fatal(err)
			}

			rep := smallParams()
			rep.TraceCache = replay.NewCache(0, nil) // isolate from other tests
			got, err := Run(exp, rep)
			if err != nil {
				t.Fatal(err)
			}

			if want.Render() != got.Render() {
				t.Errorf("replay-mode render differs from direct simulation:\n--- direct ---\n%s\n--- replay ---\n%s",
					want.Render(), got.Render())
			}
		})
	}
}

// TestReplayTraceSharedAcrossExperiments: both trace tiers are keyed
// below the experiment, so a second experiment touching the same
// workloads evaluates entirely from cache — zero new recordings. This
// is the property that lets `-exp all` simulate each (workload,
// predictor) pair at most once, and each workload's committed stream
// exactly once.
func TestReplayTraceSharedAcrossExperiments(t *testing.T) {
	t.Run("arch", func(t *testing.T) {
		cache := replay.NewArchCache(0, nil)
		records := func(exp string) int {
			p := smallParams()
			p.ArchCache = cache
			n := 0
			p.Progress = func(msg string) {
				if strings.HasPrefix(msg, "arch ") {
					n++
				}
			}
			if _, err := Run(exp, p); err != nil {
				t.Fatal(err)
			}
			return n
		}

		if n := records("table3"); n != len(suite()) {
			t.Fatalf("table3 recorded %d arch traces, want one per workload (%d)", n, len(suite()))
		}
		// The arch tier is keyed below the predictor too: misest sweeps
		// gshare and McFarling cells, all served by table3's recordings.
		if n := records("misest"); n != 0 {
			t.Fatalf("misest after table3 recorded %d arch traces, want 0", n)
		}
		if c := cache.Len(); c != len(suite()) {
			t.Fatalf("arch cache holds %d traces, want %d", c, len(suite()))
		}
	})

	t.Run("events", func(t *testing.T) {
		cache := replay.NewCache(0, nil)
		records := func(exp string) int {
			p := smallParams()
			p.TraceCache = cache
			n := 0
			p.Progress = func(msg string) {
				if strings.HasPrefix(msg, "record ") {
					n++
				}
			}
			if _, err := Run(exp, p); err != nil {
				t.Fatal(err)
			}
			return n
		}

		if n := records("fig3"); n != len(suite()) {
			t.Fatalf("fig3 recorded %d traces, want one per workload (%d)", n, len(suite()))
		}
		// Same workloads, same predictor: everything replays from cache.
		if n := records("fig3"); n != 0 {
			t.Fatalf("second fig3 run recorded %d traces, want 0", n)
		}
		if c := cache.Len(); c != len(suite()) {
			t.Fatalf("trace cache holds %d traces, want %d", c, len(suite()))
		}
	})
}

// TestReplayDeterminismAcrossJobs: replay-shaped grids keep the
// byte-identity guarantee under parallel execution (record cells and
// replay cells interleave freely on the worker pool).
func TestReplayDeterminismAcrossJobs(t *testing.T) {
	serial := smallParams()
	serial.Jobs = 1
	serial.TraceCache = replay.NewCache(0, nil)
	wide := smallParams()
	wide.Jobs = 8
	wide.TraceCache = replay.NewCache(0, nil)

	r1, err := Run("fig3", serial)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Run("fig3", wide)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Render() != r8.Render() {
		t.Fatal("fig3 replay render differs between Jobs=1 and Jobs=8")
	}
}

// TestArchTraceAddressExcludesPredictorIdentity: the arch address is
// per-workload — the signature takes no predictor spec (which is what
// lets misest's per-predictor cells share table3's recordings), and
// estimator-facing knobs must not perturb it, while anything shaping
// the committed stream (horizon, seed, workload, the canonical
// recorder's gshare sizing, pipeline identity) must.
func TestArchTraceAddressExcludesPredictorIdentity(t *testing.T) {
	base := smallParams()
	addr := base.ArchTraceAddress("gcc")

	same := base
	same.StaticThreshold = 0.5 // estimator construction knob only
	if same.ArchTraceAddress("gcc") != addr {
		t.Error("StaticThreshold changed the arch trace address")
	}

	for name, mutate := range map[string]func(*Params){
		"MaxCommitted": func(p *Params) { p.MaxCommitted++ },
		"BaseSeed":     func(p *Params) { p.BaseSeed++ },
		"GshareBits":   func(p *Params) { p.GshareBits++ },
		"FetchWidth":   func(p *Params) { p.Pipeline.FetchWidth++ },
	} {
		p := base
		mutate(&p)
		if p.ArchTraceAddress("gcc") == addr {
			t.Errorf("%s change did not change the arch trace address", name)
		}
	}
	if base.ArchTraceAddress("perl") == addr {
		t.Error("workload change did not change the arch trace address")
	}
}

// TestTraceAddressExcludesEstimatorIdentity: two parameter sets that
// differ only in estimator-facing knobs must share a trace address,
// while pipeline- or predictor-facing changes must not.
func TestTraceAddressExcludesEstimatorIdentity(t *testing.T) {
	base := smallParams()
	spec, err := predictorByName("gshare")
	if err != nil {
		t.Fatal(err)
	}
	addr := base.TraceAddress("gcc", spec)

	same := base
	same.StaticThreshold = 0.5 // estimator construction knob only
	if same.TraceAddress("gcc", spec) != addr {
		t.Error("StaticThreshold changed the trace address")
	}

	for name, mutate := range map[string]func(*Params){
		"MaxCommitted": func(p *Params) { p.MaxCommitted++ },
		"BaseSeed":     func(p *Params) { p.BaseSeed++ },
		"GshareBits":   func(p *Params) { p.GshareBits++ },
		"FetchWidth":   func(p *Params) { p.Pipeline.FetchWidth++ },
	} {
		p := base
		mutate(&p)
		if p.TraceAddress("gcc", spec) == addr {
			t.Errorf("%s change did not change the trace address", name)
		}
	}
	if base.TraceAddress("perl", spec) == addr {
		t.Error("workload change did not change the trace address")
	}
	mcf, err := predictorByName("mcfarling")
	if err != nil {
		t.Fatal(err)
	}
	if base.TraceAddress("gcc", mcf) == addr {
		t.Error("predictor change did not change the trace address")
	}
}
