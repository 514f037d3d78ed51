package replay

import (
	"reflect"
	"sync"
	"testing"

	"specctrl/internal/bpred"
	"specctrl/internal/conf"
	"specctrl/internal/isa"
	"specctrl/internal/obs"
	"specctrl/internal/pipeline"
	"specctrl/internal/profile"
	"specctrl/internal/workload"
)

// testCommitted keeps the differential runs fast while still pushing
// every estimator well past its warm-up transient.
const testCommitted = 60_000

// testProg memoizes one workload program for the whole test binary
// (program generation dominates small-run time).
var testProg = sync.OnceValue(func() *isa.Program {
	w, err := workload.ByName("gcc")
	if err != nil {
		panic(err)
	}
	return w.Build(1 << 30)
})

// testPred builds a fresh predictor of the named family, sized like the
// experiments layer's defaults.
func testPred(t testing.TB, name string) bpred.Predictor {
	t.Helper()
	switch name {
	case "gshare":
		return bpred.NewGshare(12)
	case "gshare20":
		// Histories past 16 bits, which the global rule rebuilds.
		return bpred.NewGshare(20)
	case "nonspec20":
		// Histories past 16 bits that no history rule rebuilds: the
		// trace's explicit wide path.
		return bpred.NewGshareNonSpec(20)
	case "mcfarling":
		return bpred.NewMcFarling(12)
	case "sag":
		return bpred.NewSAg(12, 13)
	}
	t.Fatalf("unknown predictor %q", name)
	return nil
}

func testConfig() pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.MaxCommitted = testCommitted
	cfg.MaxCycles = 4_000_000_000
	return cfg
}

// testStatic profiles the test program once per predictor family and
// caches the resulting static estimator (it is read-only, so sharing
// one instance across runs is safe — the same property the experiments
// layer relies on).
var testStatic = struct {
	sync.Mutex
	m map[string]conf.Static
}{m: map[string]conf.Static{}}

func staticFor(t *testing.T, predName string) conf.Static {
	t.Helper()
	testStatic.Lock()
	defer testStatic.Unlock()
	if s, ok := testStatic.m[predName]; ok {
		return s
	}
	s := profile.FromSites(collectSites(t, predName), profile.Options{Threshold: 0.90})
	testStatic.m[predName] = s
	return s
}

// collectSites is the reference profiling run: the test program
// simulated on a fresh predictor of the named family with
// CollectSiteStats, returning its per-site accuracy profile.
func collectSites(t *testing.T, predName string) map[int64]*pipeline.SiteStats {
	t.Helper()
	cfg := testConfig()
	cfg.CollectSiteStats = true
	sim, err := pipeline.New(cfg, testProg(), testPred(t, predName))
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run()
	if err != nil {
		t.Fatalf("profile %s: %v", predName, err)
	}
	return st.Sites
}

// allFamilies returns one fresh estimator per family the paper studies:
// JRS (plain and enhanced), saturating counters (single and McFarling
// both/either), pattern, static, distance, CIR (per-branch and
// global-MDC-indexed), and the JRS/McFarling hybrid. Stateful
// estimators train during a run, so every evaluation needs fresh
// instances.
func allFamilies(t *testing.T, predName string) []conf.Estimator {
	t.Helper()
	hist := map[string]uint{"gshare": 12, "gshare20": 20, "nonspec20": 20, "mcfarling": 12, "sag": 13}[predName]
	ests := []conf.Estimator{
		conf.NewJRS(conf.JRSConfig{Entries: 1024, Bits: 4, Threshold: 12, Enhanced: false}),
		conf.NewJRS(conf.JRSConfig{Entries: 1024, Bits: 4, Threshold: 12, Enhanced: true}),
		conf.SatCounters{},
		conf.SatCountersMcFarling{Variant: conf.BothStrong},
		conf.SatCountersMcFarling{Variant: conf.EitherStrong},
		conf.NewPatternHistory(hist),
		staticFor(t, predName),
		conf.NewDistance(3),
		conf.NewOnesCount(conf.OnesCountConfig{Entries: 4096, Bits: 16, Threshold: 16, Enhanced: true}),
		conf.NewGlobalMDCIndexed(conf.OnesCountConfig{Entries: 64, Bits: 16, Threshold: 16}),
		conf.NewJRSMcFarling(conf.JRSConfig{Entries: 1024, Bits: 4, Threshold: 12}, conf.BothTables),
		conf.NewJRSMcFarling(conf.JRSConfig{Entries: 1024, Bits: 4, Threshold: 12}, conf.MetaSelected),
	}
	if hist > 16 {
		// Indexed by every history bit, so replay must read the
		// trace's high halves.
		ests = append(ests, conf.NewJRS(conf.JRSConfig{Entries: 1 << hist, Bits: 4, Threshold: 12}))
	}
	return ests
}

// directRun simulates with the estimators attached — the ground truth
// the replay path must reproduce bit for bit.
func directRun(t *testing.T, predName string, ests []conf.Estimator) *pipeline.Stats {
	t.Helper()
	cfg := testConfig()
	cfg.Estimators = ests
	sim, err := pipeline.New(cfg, testProg(), testPred(t, predName))
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// recordRun simulates once with the trace recorder attached and returns
// the recording plus the base statistics (recorder entry stripped).
func recordRun(t testing.TB, predName string) (*Trace, *pipeline.Stats) {
	t.Helper()
	rec := NewRecorder()
	cfg := testConfig()
	cfg.Estimators = []conf.Estimator{rec}
	cfg.Tracer = rec
	sim, err := pipeline.New(cfg, testProg(), testPred(t, predName))
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	st.Confidence = nil
	return tr, st
}

// TestTraceSitesMatchCollect: folding a recording's committed fetches
// yields exactly the site profile a CollectSiteStats run of the same
// configuration accumulates, on every predictor family, and a decoded
// copy of the recording folds to the same profile.
func TestTraceSitesMatchCollect(t *testing.T) {
	for _, pred := range []string{"gshare", "mcfarling", "sag"} {
		tr, _ := recordRun(t, pred)
		want := collectSites(t, pred)
		if len(want) == 0 {
			t.Fatalf("%s: empty profile", pred)
		}
		if got := tr.Sites(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: trace sites (%d) differ from the profiling run's (%d)", pred, len(got), len(want))
		}
		dec, err := Decode(tr.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if got := dec.Sites(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded trace sites differ from the profiling run's", pred)
		}
	}
}

// committedFetch is one committed fetch event as Trace.Committed hands
// it over.
type committedFetch struct {
	pc      int64
	info    bpred.Info
	correct bool
}

// committedProbe is an estimator and tracer that collects the committed
// fetches of a live run: Estimate stashes the fetch-time pair, and the
// Branch callback that follows it keeps the pair unless the branch is
// on the wrong path.
type committedProbe struct {
	pend    committedFetch
	fetches []committedFetch
}

func (c *committedProbe) Name() string { return "committed-probe" }
func (c *committedProbe) Estimate(pc int64, info bpred.Info) bool {
	c.pend = committedFetch{pc: pc, info: info}
	return true
}
func (c *committedProbe) Resolve(int64, bpred.Info, bool) {}
func (c *committedProbe) Branch(e obs.BranchEvent) {
	if !e.WrongPath {
		c.pend.correct = e.Pred == e.Outcome
		c.fetches = append(c.fetches, c.pend)
	}
}
func (c *committedProbe) Close() error { return nil }

// TestCommittedMatchesRun: Trace.Committed hands over exactly the
// committed fetches of the recorded run, in order, each with the
// bpred.Info the estimators saw at fetch, on every predictor family and
// on histories that need the trace's high halves.
func TestCommittedMatchesRun(t *testing.T) {
	for _, pred := range []string{"gshare", "gshare20", "nonspec20", "mcfarling", "sag"} {
		rec, probe := NewRecorder(), &committedProbe{}
		cfg := testConfig()
		cfg.Estimators = []conf.Estimator{rec, probe}
		cfg.Tracer = obs.MultiSink(rec, probe)
		sim, err := pipeline.New(cfg, testProg(), testPred(t, pred))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		tr, err := rec.Trace()
		if err != nil {
			t.Fatal(err)
		}
		var got []committedFetch
		tr.Committed(func(pc int64, info bpred.Info, correct bool) {
			got = append(got, committedFetch{pc, info, correct})
		})
		if len(probe.fetches) == 0 || !reflect.DeepEqual(got, probe.fetches) {
			t.Errorf("%s: Committed's %d fetches differ from the run's %d committed fetches",
				pred, len(got), len(probe.fetches))
		}
	}
}

// TestReplayMatchesDirect is the package's reason to exist: for every
// estimator family, on every predictor family (and on a gshare whose
// histories need the trace's high halves), replaying the recorded
// event stream must reproduce the direct simulation's Stats.Confidence
// exactly — and, with the first estimator's quadrants patched in, the
// entire Stats struct.
func TestReplayMatchesDirect(t *testing.T) {
	for _, predName := range []string{"gshare", "gshare20", "nonspec20", "mcfarling", "sag"} {
		t.Run(predName, func(t *testing.T) {
			direct := directRun(t, predName, allFamilies(t, predName))
			tr, base := recordRun(t, predName)
			confs := Replay(tr, allFamilies(t, predName))

			if !reflect.DeepEqual(direct.Confidence, confs) {
				for i := range confs {
					if !reflect.DeepEqual(direct.Confidence[i], confs[i]) {
						t.Errorf("estimator %s: replayed stats differ from direct simulation",
							confs[i].Name)
					}
				}
				t.Fatal("replayed Confidence differs from direct simulation")
			}

			// The full-stats patch the experiments layer applies: base
			// stats + replayed confidence + first estimator's quadrants.
			patched := *base
			patched.Confidence = confs
			patched.AllQ = confs[0].AllQ
			patched.CommittedQ = confs[0].CommittedQ
			if !reflect.DeepEqual(&patched, direct) {
				t.Fatal("patched base stats differ from direct simulation beyond Confidence")
			}
		})
	}
}

// TestRecorderSteadyStateAllocs: appending events to an open chunk
// allocates nothing, and closing a chunk allocates only its exactly
// sized columns in compact form: the kind bits, the flags (with C1),
// the pc dictionary and its indices, plus a counter column when some
// C2 or Meta is nonzero, and an explicit history column (its high
// half too, for a value past 16 bits) when no history rule reproduces
// the chunk. Every committed fetch resolves in the chunk, so no chunk
// carries pending fetches into the next.
func TestRecorderSteadyStateAllocs(t *testing.T) {
	r := NewRecorder()
	synthFetch(r, 4096, true) // opens the chunk
	r.Resolve(0, bpred.Info{}, false)
	if a := testing.AllocsPerRun(1000, func() {
		synthFetch(r, 4100, true)
		r.Resolve(0, bpred.Info{}, false)
	}); a != 0 {
		t.Errorf("appending to an open chunk allocates %.0f times per event pair", a)
	}
	if len(r.t.chunks) != 0 {
		t.Fatal("the appends closed a chunk")
	}

	for _, tc := range []struct {
		name string
		pc   int64
		info bpred.Info
		cols float64
	}{
		{"rule", 4096, bpred.Info{C1: 3}, 4},
		{"counters", 4096, bpred.Info{C2: 1}, 5},
		{"wide pc", 1 << 16, bpred.Info{}, 4},
		{"narrow", 4096, bpred.Info{Hist: 1<<16 - 1}, 5}, // a history off the rule
		{"wide history", 4096, bpred.Info{Hist: 1 << 16}, 6},
		{"both wide", -4, bpred.Info{Hist: 1 << 31, Meta: 2}, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRecorder()
			for i := 0; i < 100; i++ {
				synthFetch(r, 4096, i%3 != 0)
				if i%3 != 0 {
					r.Resolve(0, bpred.Info{}, false)
				}
			}
			r.Estimate(tc.pc, tc.info)
			r.Branch(obs.BranchEvent{PC: tc.pc, WrongPath: true})
			var c chunk
			if a := testing.AllocsPerRun(10, func() { c = r.cur.close() }); a != tc.cols {
				t.Errorf("closing the chunk allocates %.0f times, want %.0f", a, tc.cols)
			}
			pcs, hists := make([]int32, len(c.flg)), make([]uint32, len(c.flg))
			c.rows(new(rebuild), pcs, hists)
			if got := int64(pcs[100]); got != tc.pc {
				t.Errorf("pc %d read back as %d", tc.pc, got)
			}
			var info bpred.Info
			setInfo(&info, hists[100], c.ctrAt(100), c.flg[100])
			if info != tc.info {
				t.Errorf("info %+v read back as %+v", tc.info, info)
			}
		})
	}
}

// wideRecording records the test program on a 20-bit gshare with
// non-speculative history, whose histories follow neither history rule
// and need the explicit column's high halves in every chunk; its pcs
// are dictionary-coded.
func wideRecording(t testing.TB) *Trace {
	t.Helper()
	tr, _ := recordRun(t, "nonspec20")
	for i := range tr.chunks {
		if c := &tr.chunks[i]; c.hist.rule != histExplicit || c.hist.wide.hi == nil || c.pc.dict == nil {
			t.Fatalf("chunk %d: history rule %d, history high half %v, pc dictionary %v; want explicit wide histories",
				i, c.hist.rule, c.hist.wide.hi != nil, c.pc.dict != nil)
		}
	}
	return tr
}

// TestRecorderBaseStatsEstimatorFree: the recording run's base
// statistics must equal a run with no estimators attached at all —
// that is what lets one trace serve every estimator configuration.
func TestRecorderBaseStatsEstimatorFree(t *testing.T) {
	_, base := recordRun(t, "gshare")
	bare := directRun(t, "gshare", nil)
	// Confidence is nil on the stripped base and a zero-length slice on
	// the bare run; both are overwritten by the replayed entries, so
	// only the distinction-free comparison matters here.
	bare.Confidence = nil
	if !reflect.DeepEqual(base, bare) {
		t.Fatal("recording run's base stats differ from an estimator-less run")
	}
}

// TestTraceCounts sanity-checks the recorded stream's shape: every
// committed conditional branch contributes one fetch and one resolve
// token, wrong-path fetches contribute a fetch token only.
func TestTraceCounts(t *testing.T) {
	tr, base := recordRun(t, "gshare")
	if tr.Fetches() == 0 {
		t.Fatal("empty recording")
	}
	resolves := tr.Events() - tr.Fetches()
	if uint64(resolves) != base.CommittedBr {
		t.Errorf("resolve tokens = %d, committed conditional branches = %d", resolves, base.CommittedBr)
	}
	if tr.Fetches() < resolves {
		t.Errorf("fetch tokens %d < resolve tokens %d", tr.Fetches(), resolves)
	}
	if tr.Bytes() <= 0 {
		t.Errorf("Bytes() = %d, want positive", tr.Bytes())
	}
}

// scripted estimator for synthetic-stream tests: records every call.
type capture struct {
	estimates []int64
	resolves  []oracleRec
}

func (c *capture) Name() string { return "capture" }
func (c *capture) Estimate(pc int64, info bpred.Info) bool {
	c.estimates = append(c.estimates, pc)
	return true
}
func (c *capture) Resolve(pc int64, info bpred.Info, correct bool) {
	c.resolves = append(c.resolves, oracleRec{pc: pc, info: info, correct: correct})
}

// synthFetch drives a recorder with one fetch event, committed or
// wrong-path, the way the pipeline would; callers add the resolves.
func synthFetch(r *Recorder, pc int64, committed bool) {
	r.Estimate(pc, bpred.Info{Pred: true})
	r.Branch(obs.BranchEvent{PC: pc, Pred: true, Outcome: true, WrongPath: !committed})
}

// TestReplayResolveFIFO: resolves replay in committed-fetch order with
// fetch-time arguments, with more committed fetches outstanding than a
// view window's scratch holds (so the view's columns grow), and across
// window and chunk boundaries.
func TestReplayResolveFIFO(t *testing.T) {
	r := NewRecorder()
	const n = 3 * chunkTokens / 4 // enough tokens to cross a chunk boundary after resolves
	for i := 0; i < n; i++ {
		synthFetch(r, int64(1000+i*4), true)
		if i%3 == 0 {
			synthFetch(r, int64(-5000-i), false) // interleaved wrong-path fetch
		}
	}
	for i := 0; i < n; i++ {
		r.Resolve(0, bpred.Info{}, false) // arguments ignored by the recorder
	}
	tr, err := r.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.chunks) < 2 {
		t.Fatalf("test meant to cross a chunk boundary, got %d chunks", len(tr.chunks))
	}

	c := &capture{}
	Replay(tr, []conf.Estimator{c})
	if len(c.resolves) != n {
		t.Fatalf("replayed %d resolves, want %d", len(c.resolves), n)
	}
	for i, rr := range c.resolves {
		if want := int64(1000 + i*4); rr.pc != want {
			t.Fatalf("resolve %d: pc %#x, want %#x (FIFO order broken)", i, rr.pc, want)
		}
		if !rr.correct {
			t.Fatalf("resolve %d: correctness not carried from fetch time", i)
		}
	}
	if want := n + (n+2)/3; len(c.estimates) != want {
		t.Fatalf("replayed %d estimates, want %d", len(c.estimates), want)
	}
}

// TestRecorderPairingErrors: a recorder driven outside the pipeline's
// Estimate-then-Branch contract must fail at Trace(), not record
// garbage.
func TestRecorderPairingErrors(t *testing.T) {
	t.Run("double estimate", func(t *testing.T) {
		r := NewRecorder()
		r.Estimate(1, bpred.Info{})
		r.Estimate(2, bpred.Info{})
		if _, err := r.Trace(); err == nil {
			t.Fatal("Trace accepted back-to-back Estimates")
		}
	})
	t.Run("branch pc mismatch", func(t *testing.T) {
		r := NewRecorder()
		r.Estimate(1, bpred.Info{})
		r.Branch(obs.BranchEvent{PC: 99})
		if _, err := r.Trace(); err == nil {
			t.Fatal("Trace accepted a Branch for a different pc")
		}
	})
	t.Run("branch without estimate", func(t *testing.T) {
		r := NewRecorder()
		r.Branch(obs.BranchEvent{PC: 1})
		if _, err := r.Trace(); err == nil {
			t.Fatal("Trace accepted an unpaired Branch")
		}
	})
	t.Run("dangling estimate", func(t *testing.T) {
		r := NewRecorder()
		synthFetch(r, 1, true)
		r.Estimate(2, bpred.Info{})
		if _, err := r.Trace(); err == nil {
			t.Fatal("Trace accepted a recording ending mid-fetch")
		}
	})
	for name, ev := range map[string]struct {
		pc   int64
		hist uint64
	}{
		"pc above int32":      {1 << 31, 0},
		"pc below int32":      {-1<<31 - 1, 0},
		"history over 32 bit": {1, 1 << 32},
	} {
		t.Run(name, func(t *testing.T) {
			r := NewRecorder()
			r.Estimate(ev.pc, bpred.Info{Hist: ev.hist})
			r.Branch(obs.BranchEvent{PC: ev.pc})
			if _, err := r.Trace(); err == nil {
				t.Fatal("Trace accepted a fetch event that does not fit the 32-bit columns")
			}
		})
	}
	t.Run("clean recorder", func(t *testing.T) {
		r := NewRecorder()
		synthFetch(r, 1, true)
		r.Resolve(0, bpred.Info{}, false)
		if _, err := r.Trace(); err != nil {
			t.Fatalf("well-formed recording rejected: %v", err)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
}

// TestReplaySteadyStateAllocFree: Replay's per-event loop must not
// allocate — its allocation count is a small constant (result and
// scratch slices) independent of trace length.
func TestReplaySteadyStateAllocFree(t *testing.T) {
	short := recordSynthetic(1_000)
	long := recordSynthetic(100_000)
	ests := []conf.Estimator{conf.SatCounters{}}
	allocShort := testing.AllocsPerRun(10, func() { Replay(short, ests) })
	allocLong := testing.AllocsPerRun(10, func() { Replay(long, ests) })
	if allocShort != allocLong {
		t.Fatalf("allocations grow with trace length: %.0f for 1k events, %.0f for 100k",
			allocShort, allocLong)
	}
	if allocLong > 8 {
		t.Fatalf("Replay allocates %.0f times per call, want a small constant", allocLong)
	}
}

// recordSynthetic builds an n-committed-branch trace without a
// simulator, keeping a few fetches in flight like a real pipeline.
func recordSynthetic(n int) *Trace {
	r := NewRecorder()
	inflight := 0
	for i := 0; i < n; i++ {
		synthFetch(r, int64(4096+i*4), true)
		inflight++
		if inflight == 8 {
			for ; inflight > 0; inflight-- {
				r.Resolve(0, bpred.Info{}, false)
			}
		}
	}
	for ; inflight > 0; inflight-- {
		r.Resolve(0, bpred.Info{}, false)
	}
	tr, err := r.Trace()
	if err != nil {
		panic(err)
	}
	return tr
}
