package pipeline

import (
	"strings"
	"testing"

	"specctrl/internal/bpred"
	"specctrl/internal/conf"
	"specctrl/internal/obs"
	"specctrl/internal/workload"
)

// checkAccounts asserts the cycle-accounting invariant and that the
// run actually exercised the timing model.
func checkAccounts(t *testing.T, st *Stats) {
	t.Helper()
	if err := st.CycleAccounts.CheckInvariant(st.Cycles); err != nil {
		t.Error(err)
	}
	if st.Cycles == 0 {
		t.Fatal("run produced no cycles")
	}
}

// TestCycleAccountingInvariantSuite is the acceptance check: on every
// workload in the suite, committed and wrong-path cycles alike, the
// per-bucket counts sum exactly to Stats.Cycles.
func TestCycleAccountingInvariantSuite(t *testing.T) {
	for _, w := range workload.Suite() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			cfg := testConfig()
			cfg.MaxCommitted = 40_000
			st, _ := mustRun(t, cfg, w.Build(1<<30), bpred.NewGshare(10),
				conf.NewJRS(conf.DefaultJRS))
			checkAccounts(t, st)
			if st.Squashes == 0 {
				t.Errorf("%s: no squashes — wrong-path accounting untested", w.Name)
			}
			if st.CycleAccounts[BucketUsefulFetch] == 0 {
				t.Errorf("%s: no useful-fetch cycles", w.Name)
			}
			if st.CycleAccounts[BucketMispredictRecovery] == 0 {
				t.Errorf("%s: squashes but no recovery cycles", w.Name)
			}
		})
	}
}

// TestCycleAccountingBucketsPlausible cross-checks buckets against the
// independently collected statistics.
func TestCycleAccountingBucketsPlausible(t *testing.T) {
	cfg := testConfig()
	st, _ := mustRun(t, cfg, loopProgram(20_000), bpred.NewGshare(10))
	checkAccounts(t, st)
	// Every squash costs at least the redirect cycle plus the extra
	// penalty, so recovery cycles are bounded below by squash count.
	if st.CycleAccounts[BucketMispredictRecovery] < st.Squashes {
		t.Errorf("recovery cycles %d < squashes %d",
			st.CycleAccounts[BucketMispredictRecovery], st.Squashes)
	}
	// Useful fetch cycles can't exceed committed instructions (at most
	// FetchWidth commits per useful cycle, at least one).
	if st.CycleAccounts[BucketUsefulFetch] > st.Committed {
		t.Errorf("useful cycles %d > committed instructions %d",
			st.CycleAccounts[BucketUsefulFetch], st.Committed)
	}
	if got := st.CycleAccounts[BucketGated]; got != st.GatedCycles {
		t.Errorf("gated bucket %d != GatedCycles %d", got, st.GatedCycles)
	}
	if so := st.CycleAccounts.SpeculationOverhead(); so <= 0 || so >= 1 {
		t.Errorf("speculation overhead %.3f out of (0,1)", so)
	}
	if !strings.Contains(st.CycleAccounts.Render(), "wrong_path") {
		t.Error("Render missing bucket names")
	}
}

// TestCycleAccountingGated drives fetch gating through Tick and checks
// the gated bucket mirrors GatedCycles under external scheduling.
func TestCycleAccountingGated(t *testing.T) {
	cfg := testConfig()
	sim := MustNew(cfg, loopProgram(5000), bpred.NewGshare(10))
	i := 0
	for {
		done, err := sim.Tick(i%3 != 0) // withhold fetch every third cycle
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		i++
	}
	st := sim.Finish()
	checkAccounts(t, st)
	if st.CycleAccounts[BucketGated] == 0 {
		t.Error("no gated cycles despite withheld fetch")
	}
	if st.CycleAccounts[BucketGated] != st.GatedCycles {
		t.Errorf("gated bucket %d != GatedCycles %d",
			st.CycleAccounts[BucketGated], st.GatedCycles)
	}
}

// TestCycleAccountingIndirect keeps the invariant under the BTB/RAS
// front end, where target mispredictions create their own wrong path.
func TestCycleAccountingIndirect(t *testing.T) {
	w, err := workload.ByName("xlisp")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.MaxCommitted = 40_000
	cfg.IndirectPrediction = true
	st, _ := mustRun(t, cfg, w.Build(1<<30), bpred.NewGshare(10))
	checkAccounts(t, st)
}

// TestCycleAccountingErrorPath keeps the invariant when a run aborts
// on MaxCycles.
func TestCycleAccountingErrorPath(t *testing.T) {
	cfg := testConfig()
	cfg.MaxCycles = 500
	sim := MustNew(cfg, loopProgram(1<<30), bpred.NewGshare(10))
	st, err := sim.Run()
	if err == nil {
		t.Fatal("expected MaxCycles error")
	}
	if ierr := st.CycleAccounts.CheckInvariant(st.Cycles); ierr != nil {
		t.Error(ierr)
	}
}

// TestLiveMetricsPublish runs with an obs registry attached and checks
// the final published gauges agree with the run statistics, cycle
// buckets and estimator quadrants included.
func TestLiveMetricsPublish(t *testing.T) {
	reg := obs.NewRegistry()
	prog := obs.NewProgress().StartRun("looper/gshare", 0)
	cfg := testConfig()
	cfg.Metrics = reg
	cfg.MetricsLabels = obs.Labels{"workload": "looper"}
	cfg.MetricsInterval = 64
	cfg.Progress = prog
	st, _ := mustRun(t, cfg, loopProgram(5000), bpred.NewGshare(10),
		conf.NewJRS(conf.DefaultJRS))

	read := func(name string, labels obs.Labels) float64 {
		t.Helper()
		return reg.Gauge(name, labels).Value()
	}
	base := obs.Labels{"workload": "looper"}
	if got := read("specctrl_sim_cycles", base); uint64(got) != st.Cycles {
		t.Errorf("published cycles %v != %d", got, st.Cycles)
	}
	if got := read("specctrl_sim_committed_instructions", base); uint64(got) != st.Committed {
		t.Errorf("published committed %v != %d", got, st.Committed)
	}
	for b := CycleBucket(0); b < NumCycleBuckets; b++ {
		got := read("specctrl_sim_cycle_bucket", base.With("bucket", b.String()))
		if uint64(got) != st.CycleAccounts[b] {
			t.Errorf("bucket %s published %v != %d", b, got, st.CycleAccounts[b])
		}
	}
	estL := base.With("estimator", st.Confidence[0].Name)
	if got := read("specctrl_sim_conf_pvn", estL); got != st.Confidence[0].CommittedQ.PVN() {
		t.Errorf("published pvn %v != %v", got, st.Confidence[0].CommittedQ.PVN())
	}
	snap := prog.Snapshot()
	if snap.Committed != st.Committed || snap.Cycles != st.Cycles {
		t.Errorf("progress snapshot %+v disagrees with stats", snap)
	}
}
