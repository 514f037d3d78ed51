package pipeline

import (
	"errors"
	"strings"
	"testing"

	"specctrl/internal/bpred"
	"specctrl/internal/cache"
	"specctrl/internal/conf"
	"specctrl/internal/emu"
	"specctrl/internal/isa"
	"specctrl/internal/rng"
)

// testConfig is DefaultConfig with a cycle safety net for tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxCycles = 10_000_000
	return cfg
}

// loopProgram: a counted loop with a data-dependent inner branch driven by
// a pseudo-random table, so there are both predictable and unpredictable
// branches.
func loopProgram(iters int) *isa.Program {
	b := isa.NewBuilder("looper")
	g := rng.New(42)
	for i := int64(0); i < 256; i++ {
		b.Word(1000+i, int64(g.Intn(2)))
	}
	b.Li(1, 0)            // i
	b.Li(2, int32(iters)) // limit
	b.Li(3, 0)            // sum
	b.Li(4, 1000)         // table base
	b.Label("loop")
	b.Andi(5, 1, 255) // idx = i & 255
	b.Add(5, 4, 5)
	b.Ld(6, 5, 0)              // random bit
	b.Beq(6, isa.Zero, "skip") // data-dependent branch
	b.Addi(3, 3, 1)
	b.Label("skip")
	b.Addi(1, 1, 1)
	b.Blt(1, 2, "loop") // predictable loop branch
	b.Halt()
	return b.MustBuild()
}

// biasedProgram: every branch is taken, so a trained predictor never
// mispredicts after warmup.
func biasedProgram(iters int) *isa.Program {
	b := isa.NewBuilder("biased")
	b.Li(1, 0).Li(2, int32(iters))
	b.Label("loop")
	b.Addi(1, 1, 1)
	b.Blt(1, 2, "loop")
	b.Halt()
	return b.MustBuild()
}

// newSim builds a Sim with the given estimator set, panicking on
// configuration errors (test configurations are statically good).
func newSim(cfg Config, p *isa.Program, pred bpred.Predictor, ests ...conf.Estimator) *Sim {
	cfg.Estimators = ests
	return MustNew(cfg, p, pred)
}

func mustRun(t *testing.T, cfg Config, p *isa.Program, pred bpred.Predictor, ests ...conf.Estimator) (*Stats, *Sim) {
	t.Helper()
	sim := newSim(cfg, p, pred, ests...)
	st, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st, sim
}

func TestLockstepOracle(t *testing.T) {
	// The pipeline's committed execution must be bit-identical to the
	// functional emulator: same instruction count, same final registers,
	// same memory effects — wrong-path excursions must leave no trace.
	p := loopProgram(2000)
	st, sim := mustRun(t, testConfig(), p, bpred.NewGshare(10), conf.NewJRS(conf.DefaultJRS))

	m := emu.NewMachine(p)
	if _, err := m.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	// The emulator counts the final HALT; the pipeline stops fetching at
	// it without counting.
	if st.Committed != m.Executed-1 {
		t.Errorf("committed = %d, emulator executed-1 = %d", st.Committed, m.Executed-1)
	}
	if sim.Registers() != m.State.Regs {
		t.Errorf("final registers diverge:\npipeline: %v\nemulator: %v",
			sim.Registers(), m.State.Regs)
	}
	// Spot-check memory: the data table region must be untouched, and
	// wrong-path stores must have been rolled back everywhere.
	for addr := int64(1000); addr < 1256; addr++ {
		if sim.Memory().Read(addr) != m.Mem.Read(addr) {
			t.Fatalf("memory diverges at %d", addr)
		}
	}
	if st.Squashes == 0 {
		t.Error("expected some mispredictions in the random-branch loop")
	}
	if st.WrongPath == 0 {
		t.Error("expected wrong-path instructions")
	}
}

func TestCommittedBranchCountMatchesEmulator(t *testing.T) {
	p := loopProgram(500)
	st, _ := mustRun(t, testConfig(), p, bpred.NewGshare(10))
	m := emu.NewMachine(p)
	if _, err := m.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if st.CommittedBr != m.CondBranches {
		t.Errorf("committed branches = %d, emulator = %d", st.CommittedBr, m.CondBranches)
	}
}

func TestPredictableLoopHasFewMispredictions(t *testing.T) {
	st, _ := mustRun(t, testConfig(), biasedProgram(5000), bpred.NewGshare(12))
	if r := st.MispredictRate(); r > 0.02 {
		t.Errorf("mispredict rate on always-taken loop = %v, want < 2%%", r)
	}
	if st.SpeculationRatio() > 1.05 {
		t.Errorf("speculation ratio %v too high for a predictable program", st.SpeculationRatio())
	}
}

func TestRandomBranchesCauseWrongPathWork(t *testing.T) {
	st, _ := mustRun(t, testConfig(), loopProgram(5000), bpred.NewGshare(12))
	if st.MispredictRate() < 0.02 {
		t.Errorf("mispredict rate %v suspiciously low for random branches", st.MispredictRate())
	}
	ratio := st.SpeculationRatio()
	if ratio <= 1.0 {
		t.Errorf("speculation ratio = %v, want > 1", ratio)
	}
	if st.AllBr <= st.CommittedBr {
		t.Error("wrong-path branches should make AllBr > CommittedBr")
	}
}

func TestSquashCountMatchesCommittedMispredictions(t *testing.T) {
	st, _ := mustRun(t, testConfig(), loopProgram(3000), bpred.NewGshare(10))
	if st.Squashes != st.CommittedQ.Incorrect() {
		t.Errorf("squashes = %d, committed mispredictions = %d",
			st.Squashes, st.CommittedQ.Incorrect())
	}
}

func TestQuadrantTotalsMatchBranchCounts(t *testing.T) {
	st, _ := mustRun(t, testConfig(), loopProgram(2000), bpred.NewGshare(10),
		conf.NewJRS(conf.DefaultJRS))
	if st.CommittedQ.Total() != st.CommittedBr {
		t.Errorf("committed quadrant total %d != committed branches %d",
			st.CommittedQ.Total(), st.CommittedBr)
	}
	if st.AllQ.Total() != st.AllBr {
		t.Errorf("all quadrant total %d != all branches %d", st.AllQ.Total(), st.AllBr)
	}
}

// clusterProgram interleaves runs of correlated data-dependent branches
// (all keyed to one random word) with long predictable stretches, so hard
// branches — and therefore mispredictions — arrive in bursts.
func clusterProgram(iters int) *isa.Program {
	b := isa.NewBuilder("cluster")
	g := rng.New(7)
	for i := int64(0); i < 512; i++ {
		b.Word(2000+i, int64(g.Uint64()&0xff))
	}
	b.Li(1, 0)            // i
	b.Li(2, int32(iters)) // limit
	b.Li(4, 2000)         // table base
	b.Label("loop")
	b.Andi(5, 1, 511)
	b.Add(5, 4, 5)
	b.Ld(6, 5, 0) // random byte
	// Three correlated hard branches on different bits of the byte.
	b.Andi(7, 6, 1)
	b.Beq(7, isa.Zero, "s1")
	b.Addi(3, 3, 1)
	b.Label("s1")
	b.Andi(7, 6, 2)
	b.Beq(7, isa.Zero, "s2")
	b.Addi(3, 3, 2)
	b.Label("s2")
	b.Andi(7, 6, 4)
	b.Beq(7, isa.Zero, "s3")
	b.Addi(3, 3, 4)
	b.Label("s3")
	// A predictable stretch: 8 always-taken inner-loop iterations.
	b.Li(8, 0)
	b.Label("inner")
	b.Addi(8, 8, 1)
	b.Slti(9, 8, 8)
	b.Bne(9, isa.Zero, "inner")
	b.Addi(1, 1, 1)
	b.Blt(1, 2, "loop")
	b.Halt()
	return b.MustBuild()
}

func TestMispredictionClustering(t *testing.T) {
	// The paper's §4.1 claim: branches fetched shortly after a
	// misprediction are more likely to be mispredicted than average,
	// on a workload whose hard branches arrive in bursts.
	st, _ := mustRun(t, testConfig(), clusterProgram(5000), bpred.NewGshare(12))
	avg := st.AllQ.MispredictRate()
	near := (st.PreciseAll.Rate(1) + st.PreciseAll.Rate(2)) / 2
	if near <= avg {
		t.Errorf("misprediction rate near distance 1-2 (%v) should exceed average (%v)", near, avg)
	}
}

func TestPerceivedDistanceSkewedRight(t *testing.T) {
	// Perceived distances reset later than precise ones, so short
	// perceived distances should be rarer than short precise distances.
	st, _ := mustRun(t, testConfig(), loopProgram(20000), bpred.NewGshare(12))
	var precShort, percShort uint64
	for d := 0; d < 3; d++ {
		precShort += st.PreciseAll.Total[d]
		percShort += st.PerceivedAll.Total[d]
	}
	if percShort > precShort {
		t.Errorf("perceived short distances (%d) exceed precise (%d); skew is wrong",
			percShort, precShort)
	}
}

func TestSiteStatsCollected(t *testing.T) {
	cfg := testConfig()
	cfg.CollectSiteStats = true
	st, _ := mustRun(t, cfg, loopProgram(1000), bpred.NewGshare(10))
	if len(st.Sites) == 0 {
		t.Fatal("no site stats collected")
	}
	var total uint64
	for _, s := range st.Sites {
		total += s.Total
		if s.Correct > s.Total {
			t.Fatal("site correct > total")
		}
	}
	if total != st.CommittedBr {
		t.Errorf("site totals %d != committed branches %d", total, st.CommittedBr)
	}
}

func TestMaxCommittedStopsRun(t *testing.T) {
	cfg := testConfig()
	cfg.MaxCommitted = 1000
	st, _ := mustRun(t, cfg, loopProgram(1_000_000), bpred.NewGshare(10))
	if st.Committed < 1000 || st.Committed > 1000+uint64(cfg.FetchWidth) {
		t.Errorf("committed = %d, want ~1000", st.Committed)
	}
}

func TestMaxCyclesAborts(t *testing.T) {
	b := isa.NewBuilder("spin")
	b.Label("l").Jump("l")
	cfg := testConfig()
	cfg.MaxCycles = 1000
	sim := MustNew(cfg, b.MustBuild(), bpred.NewGshare(8))
	if _, err := sim.Run(); err == nil {
		t.Error("expected MaxCycles error on non-terminating program")
	}
}

func TestIPCReasonable(t *testing.T) {
	st, _ := mustRun(t, testConfig(), biasedProgram(10000), bpred.NewGshare(12))
	ipc := st.IPC()
	if ipc < 0.3 || ipc > 4.0 {
		t.Errorf("IPC = %v, outside plausible range", ipc)
	}
}

func TestMispredictionPenaltyCostsCycles(t *testing.T) {
	// Same committed work, worse predictor => more cycles.
	good, _ := mustRun(t, testConfig(), loopProgram(5000), bpred.NewGshare(12))
	bad, _ := mustRun(t, testConfig(), loopProgram(5000), bpred.Static{Taken: false})
	if bad.Cycles <= good.Cycles {
		t.Errorf("always-not-taken (%d cycles) should be slower than gshare (%d cycles)",
			bad.Cycles, good.Cycles)
	}
	if bad.Committed != good.Committed {
		t.Errorf("committed work differs: %d vs %d", bad.Committed, good.Committed)
	}
}

func TestCacheStatsPopulated(t *testing.T) {
	st, _ := mustRun(t, testConfig(), loopProgram(1000), bpred.NewGshare(10))
	if st.ICacheHits+st.ICacheMisses == 0 {
		t.Error("no icache accesses recorded")
	}
	if st.DCacheHits+st.DCacheMisses == 0 {
		t.Error("no dcache accesses recorded")
	}
}

func TestDistanceEstimatorIntegration(t *testing.T) {
	// The Distance estimator must see every fetched branch; its
	// committed-quadrant totals must match.
	st, _ := mustRun(t, testConfig(), loopProgram(2000), bpred.NewGshare(10),
		conf.NewDistance(3))
	if st.CommittedQ.Total() != st.CommittedBr {
		t.Error("distance estimator integration lost events")
	}
	// Both confidence classes should appear on this workload.
	if st.CommittedQ.Chc+st.CommittedQ.Ihc == 0 {
		t.Error("distance estimator never said high confidence")
	}
	if st.CommittedQ.Clc+st.CommittedQ.Ilc == 0 {
		t.Error("distance estimator never said low confidence")
	}
}

func TestAlwaysLCPVNEqualsMispredictRate(t *testing.T) {
	// The paper's Figure 4 observation: when every branch is low
	// confidence, PVN equals the misprediction rate.
	st, _ := mustRun(t, testConfig(), loopProgram(5000), bpred.NewGshare(10),
		conf.Always{High: false})
	pvn := st.CommittedQ.PVN()
	mr := st.MispredictRate()
	if diff := pvn - mr; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("PVN (%v) != mispredict rate (%v) under AlwaysLC", pvn, mr)
	}
}

func TestWrongPathHaltIdlesUntilRecovery(t *testing.T) {
	// A program whose wrong path falls into HALT: a mispredicted branch
	// right before the end of the program.
	b := isa.NewBuilder("edge")
	b.Li(1, 0).Li(2, 100)
	b.Label("loop")
	b.Addi(1, 1, 1)
	// This branch is taken 99 times then falls through; the predictor
	// will mispredict the exit, sending fetch into HALT's vicinity.
	b.Blt(1, 2, "loop")
	b.Li(3, 7)
	b.Halt()
	st, sim := mustRun(t, testConfig(), b.MustBuild(), bpred.NewGshare(8))
	if sim.Registers()[3] != 7 {
		t.Error("instruction after mispredicted exit did not commit")
	}
	if st.Committed == 0 {
		t.Error("nothing committed")
	}
}

func TestValidateConfig(t *testing.T) {
	bad := []Config{
		{FetchWidth: 0, ResolveDelay: 5, ICache: cache.DefaultL1I, DCache: cache.DefaultL1D},
		{FetchWidth: 4, ResolveDelay: 0, ICache: cache.DefaultL1I, DCache: cache.DefaultL1D},
		{FetchWidth: 4, ResolveDelay: 5, ExtraMispredictPenalty: -1, ICache: cache.DefaultL1I, DCache: cache.DefaultL1D},
		{FetchWidth: 4, ResolveDelay: 5}, // zero caches
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Stats {
		st, _ := mustRun(t, testConfig(), loopProgram(2000), bpred.NewGshare(10),
			conf.NewJRS(conf.DefaultJRS))
		return st
	}
	a, b := run(), run()
	if a.Committed != b.Committed || a.Cycles != b.Cycles ||
		a.CommittedQ != b.CommittedQ || a.AllQ != b.AllQ {
		t.Error("simulation is not deterministic")
	}
}

func BenchmarkPipelineGshareJRS(b *testing.B) {
	p := loopProgram(1_000_000_000) // effectively unbounded; MaxCommitted caps
	cfg := DefaultConfig()
	cfg.MaxCommitted = uint64(b.N)
	cfg.MaxCycles = uint64(b.N)*10 + 10_000
	sim := newSim(cfg, p, bpred.NewGshare(12), conf.NewJRS(conf.DefaultJRS))
	b.ResetTimer()
	if _, err := sim.Run(); err != nil {
		b.Fatal(err)
	}
}

func TestMultiEstimatorFanOut(t *testing.T) {
	// A run with many estimators must give each estimator exactly the
	// quadrants it would get alone: estimators observe without
	// influencing the run.
	p := loopProgram(2000)
	mk := func() []conf.Estimator {
		return []conf.Estimator{
			conf.NewJRS(conf.DefaultJRS),
			conf.SatCounters{},
			conf.NewDistance(3),
			conf.Always{High: false},
		}
	}
	multi, _ := mustRun(t, testConfig(), p, bpred.NewGshare(10), mk()...)
	for i, e := range mk() {
		solo, _ := mustRun(t, testConfig(), p, bpred.NewGshare(10), e)
		if multi.Confidence[i].CommittedQ != solo.Confidence[0].CommittedQ {
			t.Errorf("estimator %d (%s): multi %+v != solo %+v", i,
				multi.Confidence[i].Name, multi.Confidence[i].CommittedQ,
				solo.Confidence[0].CommittedQ)
		}
		if multi.Confidence[i].AllQ != solo.Confidence[0].AllQ {
			t.Errorf("estimator %d (%s): AllQ differs", i, multi.Confidence[i].Name)
		}
	}
	// The first estimator's quadrants mirror into the top-level fields.
	if multi.CommittedQ != multi.Confidence[0].CommittedQ {
		t.Error("CommittedQ does not mirror estimator 0")
	}
}

func TestTooManyEstimatorsError(t *testing.T) {
	ests := make([]conf.Estimator, 1025)
	for i := range ests {
		ests[i] = conf.Always{High: true}
	}
	cfg := testConfig()
	cfg.Estimators = ests
	_, err := New(cfg, loopProgram(1), bpred.NewGshare(8))
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("New accepted 1025 estimators (err=%v)", err)
	}
	if ce.Field != "Estimators" {
		t.Errorf("ConfigError.Field = %q, want Estimators", ce.Field)
	}
}

func TestNilEstimatorError(t *testing.T) {
	cfg := testConfig()
	cfg.Estimators = []conf.Estimator{conf.Always{High: true}, nil}
	_, err := New(cfg, loopProgram(1), bpred.NewGshare(8))
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("New accepted a nil estimator (err=%v)", err)
	}
	if ce.Field != "Estimators[1]" {
		t.Errorf("ConfigError.Field = %q, want Estimators[1]", ce.Field)
	}
}

func TestConfigErrorNamesField(t *testing.T) {
	cfg := testConfig()
	cfg.FetchWidth = 0
	_, err := New(cfg, loopProgram(1), bpred.NewGshare(8))
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("New accepted FetchWidth=0 (err=%v)", err)
	}
	if ce.Field != "FetchWidth" {
		t.Errorf("ConfigError.Field = %q, want FetchWidth", ce.Field)
	}
	if !strings.Contains(ce.Error(), "FetchWidth") {
		t.Errorf("ConfigError.Error() = %q does not name the field", ce.Error())
	}
	bad := testConfig()
	bad.ICache.Assoc = 0
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted a zero-assoc I-cache")
	} else {
		var ice *ConfigError
		if !errors.As(err, &ice) || ice.Field != "ICache" {
			t.Errorf("ICache validation error = %v, want ConfigError{Field: ICache}", err)
		}
	}
}
