package experiments

import (
	"strings"
	"testing"

	"specctrl/internal/obs"
	"specctrl/internal/replay"
)

// TestReplayRenderMatchesDirect is the experiments-level exactness
// gate: the same experiment rendered under record/replay evaluation
// and under direct simulation must be byte-identical. The selection
// covers the replay-backed grid shapes — suite sweeps with stateful
// sweep estimators (fig3), small fixed estimator sets (table3),
// profiling-dependent builders (table2's static column), evalEstimators
// cells with a training profiler (patterns), a grouped Distance sweep
// (table4), one singleton of each threshold-grouped family (cir), and
// the cells served straight from a recording: base stats (table1,
// abl-spechist, abl-indirect) and site profiles (tuned, xinput). The
// remaining committed-stream experiments are covered, with a shared
// cache, by TestCommittedByteIdenticalAcrossModes.
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

// TestCommittedByteIdenticalAcrossModes is the differential gate on the
// experiments that consume only the committed stream (table2,
// table2-detail, table3, patterns, misest, auc): each must render
// byte-identically under -replay on, under -replay off, and under
// parallel execution. Unlike TestReplayRenderMatchesDirect, the trace
// cache is shared across the subtests, exactly as one `-exp all`
// process shares it across experiments, so a trace recorded by one
// experiment and replayed by another is checked too.
func TestCommittedByteIdenticalAcrossModes(t *testing.T) {
	cache := replay.NewCache(0, nil)
	for _, exp := range []string{"table2", "table2-detail", "table3", "patterns", "misest", "auc"} {
		t.Run(exp, func(t *testing.T) {
			off := smallParams()
			off.Replay = ReplayOff
			want, err := Run(exp, off)
			if err != nil {
				t.Fatal(err)
			}

			on := smallParams()
			on.TraceCache = cache
			got, err := Run(exp, on)
			if err != nil {
				t.Fatal(err)
			}
			if got.Render() != want.Render() {
				t.Errorf("replay render differs from direct:\n--- direct ---\n%s\n--- replay ---\n%s",
					want.Render(), got.Render())
			}

			wide := smallParams()
			wide.TraceCache = cache
			wide.Jobs = 8
			gotWide, err := Run(exp, wide)
			if err != nil {
				t.Fatal(err)
			}
			if gotWide.Render() != want.Render() {
				t.Error("replay render differs between Jobs=1 and Jobs=8")
			}
		})
	}
}

// TestReplayTraceSharedAcrossExperiments: the trace cache is keyed
// below the experiment, so a second experiment touching the same
// (workload, predictor) pairs replays entirely from cache — zero new
// recordings. This is the property that lets `-exp all` simulate each
// pair once.
func TestReplayTraceSharedAcrossExperiments(t *testing.T) {
	records := func(t *testing.T, cache *replay.Cache, exp string) int {
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

	// resident counts the traces a cache holds: recorded, not evicted.
	resident := func(reg *obs.Registry) uint64 {
		return reg.Counter("specctrl_trace_records_total", nil).Value() -
			reg.Counter("specctrl_trace_evictions_total", nil).Value()
	}

	t.Run("table3-misest", func(t *testing.T) {
		reg := obs.NewRegistry()
		cache := replay.NewCache(0, reg)
		if n := records(t, cache, "table3"); n != len(suite()) {
			t.Fatalf("table3 recorded %d traces, want one per workload (%d)", n, len(suite()))
		}
		// misest sweeps gshare and McFarling cells: only the gshare
		// pairs are new, the McFarling ones replay table3's recordings.
		if n := records(t, cache, "misest"); n != len(suite()) {
			t.Fatalf("misest after table3 recorded %d traces, want %d (gshare only)", n, len(suite()))
		}
		if c := resident(reg); c != uint64(2*len(suite())) {
			t.Fatalf("trace cache holds %d traces, want %d", c, 2*len(suite()))
		}
	})

	t.Run("events", func(t *testing.T) {
		reg := obs.NewRegistry()
		cache := replay.NewCache(0, reg)
		if n := records(t, cache, "fig3"); n != len(suite()) {
			t.Fatalf("fig3 recorded %d traces, want one per workload (%d)", n, len(suite()))
		}
		// Same workloads, same predictor: everything replays from cache.
		if n := records(t, cache, "fig3"); n != 0 {
			t.Fatalf("second fig3 run recorded %d traces, want 0", n)
		}
		if c := resident(reg); c != uint64(len(suite())) {
			t.Fatalf("trace cache holds %d traces, want %d", c, len(suite()))
		}
	})
}

// TestReplayDeterminismAcrossJobs: replayed sweeps keep the
// byte-identity guarantee under parallel execution (cells record and
// replay in any order on the worker pool).
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

// TestTraceAddressExcludesEstimatorIdentity: a trace address names a
// (workload, predictor) run and no estimator, so only pipeline-,
// workload- or predictor-facing changes may move it.
func TestTraceAddressExcludesEstimatorIdentity(t *testing.T) {
	base := smallParams()
	spec, err := predictorByName("gshare")
	if err != nil {
		t.Fatal(err)
	}
	addr := base.TraceAddress("gcc", spec)

	for name, mutate := range map[string]func(*Params){
		"MaxCommitted": func(p *Params) { p.MaxCommitted++ },
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

// TestCommittedStreamExperimentsSeeWrongPath: table2, table3, auc,
// patterns and misest evaluate their estimators in the wrong-path-aware
// pipeline — simulated directly or replayed from an event trace — never
// over the committed branch stream alone. Every cell they record is a
// timed run (Cycles > 0) that fetched wrong-path branches (AllBr >
// CommittedBr), and every estimator in it saw them: its AllQ counts more
// branches than its CommittedQ.
func TestCommittedStreamExperimentsSeeWrongPath(t *testing.T) {
	for _, mode := range []string{ReplayOn, ReplayOff} {
		for _, exp := range []string{"table2", "table3", "auc", "patterns", "misest"} {
			t.Run(mode+"/"+exp, func(t *testing.T) {
				p := smallParams()
				p.Replay = mode
				p.TraceCache = replay.NewCache(0, nil)
				p.Record = NewCellStore()
				if _, err := Run(exp, p); err != nil {
					t.Fatal(err)
				}
				if p.Record.Len() == 0 {
					t.Fatal("no cells recorded")
				}
				for key, c := range p.Record.m {
					st := c.Stats
					if st.Cycles == 0 || st.AllBr <= st.CommittedBr {
						t.Errorf("%s: Cycles=%d AllBr=%d CommittedBr=%d, want a timed wrong-path-aware run",
							key, st.Cycles, st.AllBr, st.CommittedBr)
					}
					for _, cs := range st.Confidence {
						if cs.AllQ.Total() <= cs.CommittedQ.Total() {
							t.Errorf("%s: estimator %s saw %d branches, %d committed: no wrong path",
								key, cs.Name, cs.AllQ.Total(), cs.CommittedQ.Total())
						}
					}
				}
			})
		}
	}
}

// TestCellsPortableAcrossReplayModes: an estimator sweep enumerates the
// same cells under either -replay mode, so cells computed in one mode
// merge into a run in the other without simulating anything, and the
// merged render equals the original.
func TestCellsPortableAcrossReplayModes(t *testing.T) {
	for _, modes := range [][2]string{{ReplayOff, ReplayOn}, {ReplayOn, ReplayOff}} {
		from, to := modes[0], modes[1]
		for _, exp := range []string{"table2", "table3", "fig3"} {
			t.Run(from+"-to-"+to+"/"+exp, func(t *testing.T) {
				rec := smallParams()
				rec.Replay = from
				rec.TraceCache = replay.NewCache(0, nil)
				rec.Record = NewCellStore()
				want, err := Run(exp, rec)
				if err != nil {
					t.Fatal(err)
				}

				merge := smallParams()
				merge.Replay = to
				merge.TraceCache = replay.NewCache(0, nil)
				merge.Cells = rec.Record.m
				merge.Progress = func(msg string) { t.Errorf("merge under -replay %s simulated: %s", to, msg) }
				got, err := Run(exp, merge)
				if err != nil {
					t.Fatal(err)
				}
				if got.Render() != want.Render() {
					t.Errorf("merged render differs:\n--- %s ---\n%s\n--- merged under %s ---\n%s",
						from, want.Render(), to, got.Render())
				}
			})
		}
	}
}

// TestTraceBytesPerFetch is the trace tier's memory gate: the suite's
// recordings on gshare, McFarling and SAg at test scale retain at most
// 7.0 bytes per fetched branch. Every pc and history there fits the
// 16-bit low halves, so a fetch costs its two halves, its counter and
// flag bytes and its share of the token-kind bitset, in exactly sized
// columns.
func TestTraceBytesPerFetch(t *testing.T) {
	const limit = 7.0
	p := TestParams()
	bytes, fetches := 0, 0
	for _, spec := range AllPredictors() {
		for _, w := range suite() {
			tr, _, err := p.recordTrace(w, spec)
			if err != nil {
				t.Fatal(err)
			}
			bytes += tr.Bytes()
			fetches += tr.Fetches()
		}
	}
	perFetch := float64(bytes) / float64(fetches)
	t.Logf("%d bytes for %d fetched branches: %.2f B per fetch", bytes, fetches, perFetch)
	if perFetch > limit {
		t.Errorf("traces retain %.2f B per fetched branch, want at most %.1f", perFetch, limit)
	}
}
