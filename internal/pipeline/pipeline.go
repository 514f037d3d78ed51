// Package pipeline implements the execution-driven pipeline simulator the
// experiments run on — the repository's substitute for the paper's
// extended SimpleScalar sim-outorder (§3.1).
//
// # Model
//
// The simulator fetches down *predicted* paths: after a mispredicted
// branch it keeps fetching and functionally executing wrong-path
// instructions on forked architectural state until the branch resolves,
// then squashes the wrong path, rolls the state back, and resumes at the
// correct target after a recovery penalty. This wrong-path awareness is
// what the paper calls "pipeline-level simulation" and is essential to
// its observations: the simulator knows the outcome of every branch at
// decode — even branches that never commit — so it can record prediction
// and confidence events for committed and uncommitted branches alike, and
// both the precise and the perceived misprediction distance.
//
// Timing is approximate but mechanistic: a parameterized fetch width, an
// L1 I-cache probed at fetch and an L1 D-cache probed by loads/stores
// (misses stall the front end), a fixed fetch-to-resolve depth for
// branches, and the paper's extra misprediction recovery penalty
// (3 cycles by default) on top of the natural refill delay.
//
// # Cycle accounting
//
// Every simulated cycle is attributed to exactly one CycleBucket —
// useful fetch, I-cache stall, D-cache stall, branch-resolve wait,
// misprediction recovery, wrong-path work, or gated — and the
// per-bucket counts in Stats.CycleAccounts sum exactly to Stats.Cycles
// on every run (CycleAccounts.CheckInvariant). See the CycleBucket
// documentation in cycles.go for the full attribution taxonomy. The
// simulator can also stream live metrics into an obs.Registry and
// branch events into an obs.Tracer (Config.Metrics, Config.Tracer);
// both are free when unset beyond a nil-check.
//
// Like SimpleScalar, the simulator exploits oracle knowledge for
// structure, not for policy: predictions and confidence estimates are
// made by the real mechanisms under test; the oracle outcome only decides
// when the machine will discover a misprediction.
//
// # Event ordering contract
//
// For every fetched conditional branch, in fetch order:
// Predictor.Predict then Estimator.Estimate. For every branch that
// reaches resolution (equivalently, in this in-order-resolve model, every
// committed branch), in program order: Predictor.Resolve,
// Estimator.Resolve, and Predictor.Recover if mispredicted. Squashed
// branches are never resolved, matching hardware where the enclosing
// squash kills them first.
package pipeline

import (
	"fmt"

	"specctrl/internal/bpred"
	"specctrl/internal/btb"
	"specctrl/internal/cache"
	"specctrl/internal/conf"
	"specctrl/internal/emu"
	"specctrl/internal/isa"
	"specctrl/internal/mem"
	"specctrl/internal/metrics"
	"specctrl/internal/obs"
)

// Config parameterizes the simulator.
type Config struct {
	// FetchWidth is the maximum instructions fetched per cycle.
	FetchWidth int
	// ResolveDelay is the number of cycles between fetching a
	// conditional branch and resolving it (the fetch-to-execute depth
	// of the 5-stage pipe).
	ResolveDelay int
	// ExtraMispredictPenalty is added on top of the natural redirect
	// delay when recovering from a misprediction; the paper uses 3.
	ExtraMispredictPenalty int
	// ICache and DCache configure the L1 caches.
	ICache, DCache cache.Config
	// CollectSiteStats accumulates per-branch-site prediction accuracy
	// in Stats.Sites (used by the static estimator's profiling pass).
	CollectSiteStats bool
	// MaxCommitted stops the run after this many committed
	// instructions (0 = run to HALT).
	MaxCommitted uint64
	// MaxCycles aborts the run after this many cycles (0 = no limit);
	// a safety net against non-terminating programs.
	MaxCycles uint64
	// IndirectPrediction enables the BTB and return-address-stack
	// front end: JALR targets are predicted (RAS for returns, BTB for
	// other indirect jumps) and target mispredictions create wrong-path
	// work like direction mispredictions do. Disabled, targets are
	// assumed perfect — the paper's conditional-branch-only setup.
	IndirectPrediction bool
	// RASDepth is the return-address stack's depth (16 when zero); the
	// BTB is fixed at btbEntries entries, btbAssoc ways.
	RASDepth int

	// Estimators is the set of confidence estimators observing the run
	// (zero estimators disables confidence bookkeeping). The set is part
	// of the validated configuration — estimators must be non-nil and at
	// most 1024 are supported — and experiments.CellAddress hashes the
	// estimator names into a cell's content address along with every
	// other field here.
	Estimators []conf.Estimator

	// Policy, when non-nil, is the speculation-control policy deciding
	// the per-cycle fetch action (full rate, throttled, or gated) from
	// live confidence state — see the Policy interface. Nil is the
	// always-full-rate fast path: the hot loop pays a single nil-check
	// and no allocation. Like Estimators, the policy's Name() is part of
	// a cell's content address in experiments.CellAddress.
	Policy Policy

	// Tracer, when non-nil, receives one structured event per fetched
	// conditional branch (the obs hook behind obs.JSONL, the
	// replay.Recorder and the experiments' streaming folds). Nil is the
	// null sink: the hot path pays a single nil-check.
	Tracer obs.Tracer
	// Metrics, when non-nil, receives live gauges (cycles, IPC,
	// per-bucket cycle accounts, per-estimator SENS/SPEC/PVP/PVN
	// quadrant snapshots) labelled with MetricsLabels, refreshed every
	// MetricsInterval cycles.
	Metrics *obs.Registry
	// MetricsLabels is the base label set for this run's series,
	// typically {workload, predictor}.
	MetricsLabels obs.Labels
	// MetricsInterval is the publish period in cycles for Metrics and
	// Progress (default 16384 when either is set).
	MetricsInterval uint64
	// Progress, when non-nil, is this run's counter block in a
	// heartbeat view (obs.Progress.StartRun) and receives periodic
	// lock-free counter updates.
	Progress *obs.Run
}

// The BTB of the IndirectPrediction front end: 512 entries, 4 ways.
const btbEntries, btbAssoc = 512, 4

// DefaultConfig returns the configuration used throughout the
// experiments: 4-wide fetch, branches resolving 3 cycles after fetch (a
// 5-stage pipe resolving at execute), the paper's 3-cycle extra recovery
// penalty, and the paper's cache sizes. The 3-cycle resolve depth also
// bounds how stale the non-speculatively-updated SAg history can get,
// matching the paper's observation that non-speculative update costs
// only slightly.
func DefaultConfig() Config {
	return Config{
		FetchWidth:             4,
		ResolveDelay:           3,
		ExtraMispredictPenalty: 3,
		ICache:                 cache.DefaultL1I,
		DCache:                 cache.DefaultL1D,
	}
}

// ConfigError reports an invalid Config, naming the offending field so
// callers (CLIs, the serve API) can point users at exactly what to fix.
type ConfigError struct {
	// Field is the Config field that failed validation, e.g.
	// "FetchWidth" or "Estimators[3]".
	Field string
	// Reason describes the violated constraint.
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("pipeline: invalid Config.%s: %s", e.Field, e.Reason)
}

// Validate checks the configuration; failures are *ConfigError values
// naming the offending field.
func (c Config) Validate() error {
	switch {
	case c.FetchWidth < 1 || c.FetchWidth > 16:
		return &ConfigError{"FetchWidth", fmt.Sprintf("%d out of range [1,16]", c.FetchWidth)}
	case c.ResolveDelay < 1 || c.ResolveDelay > 64:
		return &ConfigError{"ResolveDelay", fmt.Sprintf("%d out of range [1,64]", c.ResolveDelay)}
	case c.ExtraMispredictPenalty < 0:
		return &ConfigError{"ExtraMispredictPenalty", fmt.Sprintf("%d is negative", c.ExtraMispredictPenalty)}
	}
	if err := c.ICache.Validate(); err != nil {
		return &ConfigError{"ICache", err.Error()}
	}
	if err := c.DCache.Validate(); err != nil {
		return &ConfigError{"DCache", err.Error()}
	}
	if len(c.Estimators) > 1024 {
		return &ConfigError{"Estimators", fmt.Sprintf("%d estimators exceed the limit of 1024", len(c.Estimators))}
	}
	for i, e := range c.Estimators {
		if e == nil {
			return &ConfigError{fmt.Sprintf("Estimators[%d]", i), "estimator is nil"}
		}
	}
	if c.Policy != nil {
		if v, ok := c.Policy.(interface{ Validate() error }); ok {
			if err := v.Validate(); err != nil {
				return &ConfigError{"Policy", err.Error()}
			}
		}
	}
	return nil
}

// SiteStats aggregates prediction accuracy for one branch site
// (committed branches only).
type SiteStats struct {
	Correct, Total uint64
}

// Accuracy returns the site's prediction accuracy.
func (s SiteStats) Accuracy() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Correct) / float64(s.Total)
}

// DistanceBuckets is the histogram length for misprediction-distance
// statistics; distances at or beyond the last bucket accumulate there.
const DistanceBuckets = 64

// DistanceHist accumulates (branch count, misprediction count) per
// distance since the last misprediction.
type DistanceHist struct {
	Total      [DistanceBuckets]uint64
	Mispredict [DistanceBuckets]uint64
}

// Record counts one branch observed dist branches after the previous
// reset point, mispredicted or not. Distances at or beyond the last
// bucket clamp into it. Exported so trace replay (internal/replay) can
// reproduce the simulator's histogram updates bit-for-bit.
func (h *DistanceHist) Record(dist int, mispredicted bool) {
	if dist >= DistanceBuckets {
		dist = DistanceBuckets - 1
	}
	h.Total[dist]++
	if mispredicted {
		h.Mispredict[dist]++
	}
}

// Rate returns the misprediction rate at the given distance, or 0 when
// no branches were observed there.
func (h *DistanceHist) Rate(dist int) float64 {
	if dist >= DistanceBuckets {
		dist = DistanceBuckets - 1
	}
	if h.Total[dist] == 0 {
		return 0
	}
	return float64(h.Mispredict[dist]) / float64(h.Total[dist])
}

// Stats collects everything a run produces.
type Stats struct {
	// Instruction and cycle counts.
	Committed   uint64 // committed (correct-path) instructions
	WrongPath   uint64 // squashed (wrong-path) instructions
	Cycles      uint64
	Squashes    uint64 // misprediction recoveries
	CommittedBr uint64 // committed conditional branches
	AllBr       uint64 // fetched conditional branches (committed + squashed)
	GatedCycles uint64 // cycles an external scheduler withheld fetch

	// CycleAccounts attributes every cycle to exactly one bucket; the
	// bucket counts sum to Cycles (CheckInvariant).
	CycleAccounts CycleAccounts

	// Indirect-jump statistics (populated under IndirectPrediction).
	Returns    uint64 // committed-path returns predicted via the RAS
	IndirectBr uint64 // committed-path non-return indirect jumps
	TargetMisp uint64 // target mispredictions (squashes caused)

	// CommittedQ and AllQ are the confidence quadrants of the *first*
	// attached estimator, for committed branches and all fetched
	// branches respectively. Without an estimator they still carry the
	// correct/incorrect split (everything lands in the HC column), so
	// accuracy metrics work regardless. Per-estimator quadrants for
	// every attached estimator live in Confidence.
	CommittedQ metrics.Quadrant
	AllQ       metrics.Quadrant

	// Confidence holds per-estimator statistics, in Config.Estimators
	// order. Estimators observe the run without
	// influencing it, so a single simulation evaluates many estimator
	// configurations at once.
	Confidence []ConfStats

	// Misprediction distance histograms (§4.1). "Precise" distances
	// reset when a mispredicted branch is *fetched* (oracle knowledge);
	// "perceived" distances reset when a misprediction is *detected*
	// at resolution, as real hardware would observe.
	PreciseAll         DistanceHist
	PreciseCommitted   DistanceHist
	PerceivedAll       DistanceHist
	PerceivedCommitted DistanceHist

	// Sites is per-branch-site accuracy when Config.CollectSiteStats
	// is set.
	Sites map[int64]*SiteStats

	// Cache statistics.
	ICacheHits, ICacheMisses uint64
	DCacheHits, DCacheMisses uint64
}

// ConfStats is one estimator's view of a run.
type ConfStats struct {
	// Name is the estimator's Name() at the time the run started.
	Name string
	// CommittedQ and AllQ are the confidence quadrants over committed
	// branches and over all fetched branches.
	CommittedQ metrics.Quadrant
	AllQ       metrics.Quadrant
	// MisestCommitted tracks confidence mis-estimation clustering: the
	// distance axis counts committed branches since the last committed
	// branch whose estimate disagreed with its outcome, and the
	// "mispredict" counts are mis-estimations (§4.1).
	MisestCommitted DistanceHist
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// SpeculationRatio returns (committed+wrong-path)/committed, the paper's
// Table 1 "ratio all/committed".
func (s *Stats) SpeculationRatio() float64 {
	if s.Committed == 0 {
		return 0
	}
	return float64(s.Committed+s.WrongPath) / float64(s.Committed)
}

// MispredictRate returns the committed-branch misprediction rate.
func (s *Stats) MispredictRate() float64 { return s.CommittedQ.MispredictRate() }

// inflight is a fetched, not-yet-resolved correct-path conditional
// branch.
type inflight struct {
	pc           int64
	info         bpred.Info
	ckpt         bpred.Checkpoint
	outcome      bool
	pred         bool
	resolveCycle uint64
	mispredicted bool
	lowConf      bool // first estimator said low confidence

	// Indirect-jump entries (JALR under target prediction).
	indirect bool
	isReturn bool
	target   int64 // actual target, for BTB training
	rasCkpt  int   // RAS top-of-stack at fetch
}

// Sim is one simulation run: a program, a predictor, any number of
// confidence estimators under observation, and the timing state.
type Sim struct {
	cfg  Config
	prog *isa.Program
	pred bpred.Predictor
	ests []conf.Estimator

	// Concrete-type fast paths for the three predictors the experiments
	// sweep. Interface dispatch on Predict/Resolve/Recover showed up in
	// per-branch profiles; exactly one of these is non-nil when the
	// predictor is of the matching concrete type, and the devirtualized
	// call sites let the compiler inline the small table lookups. The
	// generic interface path remains for every other Predictor.
	predG *bpred.Gshare
	predM *bpred.McFarling
	predS *bpred.SAg

	// estFast mirrors ests with concrete-type fast paths for the
	// estimator families the paper's main tables sweep; their Estimate
	// bodies are a handful of instructions, so the interface call was
	// most of their cost. estGeneric entries fall back to the interface.
	estFast []estFast

	// policy is the per-Sim speculation-control policy instance (nil =
	// always full rate); fetchWidth is the width the current cycle's
	// fetch group may use — cfg.FetchWidth forever when policy is nil,
	// rewritten at the top of each Tick otherwise.
	policy     Policy
	fetchWidth int

	state  emu.State
	mem    *mem.Memory
	icache *cache.Cache
	dcache *cache.Cache
	btb    *btb.BTB // nil unless IndirectPrediction
	ras    *btb.RAS // nil unless IndirectPrediction

	stats Stats

	// Timing state. stallReason is the bucket charged to cycles the
	// front end spends blocked behind stallUntil.
	cycle       uint64
	stallUntil  uint64
	stallReason CycleBucket

	// Observability state: pre-resolved gauges and the publish period
	// (0 = observation disabled; Tick pays one decrement-and-compare —
	// obsLeft counts down to the next publish, avoiding a per-cycle
	// modulo on the hot path).
	gauges   *simGauges
	obsEvery uint64
	obsLeft  uint64

	// Wrong-path state. When wrongPath is true the machine is fetching
	// in the shadow of the oldest unresolved misprediction; recover*
	// hold the state to restore at resolution.
	wrongPath     bool
	wrongPathIdle bool // wrong path ran into HALT; fetch suspended
	recoverRegs   [isa.NumRegs]int64
	recoverPC     int64

	// pending holds fetched, unresolved correct-path conditional
	// branches in fetch order, in a preallocated ring buffer (branches
	// resolve from the front; the occupancy bound is
	// (ResolveDelay+1)*FetchWidth, so the ring never grows after New).
	// Wrong-path branches are recorded at fetch and need no resolution,
	// so they are never enqueued.
	pending inflightRing

	// Distance counters (see Stats).
	distPreciseAll       int
	distPreciseCommitted int
	distPerceivedAll     int
	distPerceivedComm    int
	distMisest           []int // one per estimator

	// hcScratch avoids a per-branch allocation when fanning estimates
	// out to the estimators.
	hcScratch []bool

	// execRes is the scratch result for emu.ExecInto: returning the
	// ~7-word Result by value was a measurable share of per-slot fetch
	// cost. Valid only within one fetchGroup slot.
	execRes emu.Result

	halted bool
}

// New prepares a simulation of prog on the given predictor, observed by
// the confidence estimators in cfg.Estimators. It returns a *ConfigError
// (wrapped) when the configuration is invalid and a plain error when
// prog or pred is missing; MustNew is the panicking convenience wrapper
// for static configurations.
func New(cfg Config, prog *isa.Program, pred bpred.Predictor) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if prog == nil {
		return nil, fmt.Errorf("pipeline: nil program")
	}
	if pred == nil {
		return nil, fmt.Errorf("pipeline: nil predictor")
	}
	ests := cfg.Estimators
	s := &Sim{
		cfg:    cfg,
		prog:   prog,
		pred:   pred,
		ests:   ests,
		mem:    mem.NewFromImage(prog.Data),
		icache: cache.New(cfg.ICache),
		dcache: cache.New(cfg.DCache),

		policy:     policyFor(cfg),
		fetchWidth: cfg.FetchWidth,
	}
	switch p := pred.(type) {
	case *bpred.Gshare:
		s.predG = p
	case *bpred.McFarling:
		s.predM = p
	case *bpred.SAg:
		s.predS = p
	}
	s.estFast = make([]estFast, len(ests))
	for i, e := range ests {
		switch v := e.(type) {
		case *conf.JRS:
			s.estFast[i] = estFast{kind: estJRS, jrs: v}
		case *conf.Distance:
			s.estFast[i] = estFast{kind: estDist, dist: v}
		case conf.SatCounters:
			s.estFast[i] = estFast{kind: estSat}
		case conf.SatCountersMcFarling:
			s.estFast[i] = estFast{kind: estSatMcF, satM: v}
		case conf.PatternHistory:
			s.estFast[i] = estFast{kind: estPattern, pat: v}
		case conf.Static:
			s.estFast[i] = estFast{kind: estStatic, st: v}
		}
	}
	// The ring's occupancy bound: every pending branch resolves within
	// ResolveDelay+1 cycles of fetch and at most FetchWidth branches are
	// fetched per cycle, so this capacity makes steady state
	// allocation-free.
	s.pending.init((cfg.ResolveDelay + 2) * cfg.FetchWidth)
	s.state.PC = prog.Entry
	if cfg.IndirectPrediction {
		depth := cfg.RASDepth
		if depth == 0 {
			depth = 16
		}
		s.btb = btb.NewBTB(btbEntries, btbAssoc)
		s.ras = btb.NewRAS(depth)
	}
	if cfg.CollectSiteStats {
		s.stats.Sites = make(map[int64]*SiteStats)
	}
	s.stats.Confidence = make([]ConfStats, len(ests))
	for i, e := range ests {
		s.stats.Confidence[i].Name = e.Name()
	}
	s.distMisest = make([]int, len(ests))
	s.hcScratch = make([]bool, len(ests))
	if cfg.Metrics != nil || cfg.Progress != nil {
		s.obsEvery = cfg.MetricsInterval
		if s.obsEvery == 0 {
			s.obsEvery = 16384
		}
		s.obsLeft = s.obsEvery
	}
	if cfg.Metrics != nil {
		s.gauges = newSimGauges(cfg.Metrics, cfg.MetricsLabels, s.stats.Confidence)
	}
	return s, nil
}

// MustNew is New for statically known-good configurations; it panics on
// error. Tests and examples use it.
func MustNew(cfg Config, prog *isa.Program, pred bpred.Predictor) *Sim {
	s, err := New(cfg, prog, pred)
	if err != nil {
		panic(err)
	}
	return s
}

func (s *Sim) fetchInstr(pc int64) isa.Instruction {
	// One unsigned compare rejects negative and past-the-end PCs alike.
	if code := s.prog.Code; uint64(pc) < uint64(len(code)) {
		return code[pc]
	}
	return isa.Instruction{Op: isa.OpHalt}
}

// recoverPred dispatches Recover through the concrete fast path.
func (s *Sim) recoverPred(ckpt bpred.Checkpoint, pc int64, taken bool) {
	switch {
	case s.predG != nil:
		s.predG.Recover(ckpt, pc, taken)
	case s.predM != nil:
		s.predM.Recover(ckpt, pc, taken)
	case s.predS != nil:
		s.predS.Recover(ckpt, pc, taken)
	default:
		s.pred.Recover(ckpt, pc, taken)
	}
}

// estKind tags the concrete estimator families with devirtualized call
// sites; estGeneric (the zero value) routes through the interface.
type estKind uint8

const (
	estGeneric estKind = iota
	estJRS
	estDist
	estSat
	estSatMcF
	estPattern
	estStatic
)

// estFast caches one estimator's concrete identity for direct dispatch
// (value-type estimators are stored by value; copying conf.Static only
// copies its map header, the profile itself is shared).
type estFast struct {
	kind estKind
	jrs  *conf.JRS
	dist *conf.Distance
	satM conf.SatCountersMcFarling
	pat  conf.PatternHistory
	st   conf.Static
}

// resolveDue processes every pending correct-path branch whose resolve
// cycle has arrived. It returns true if a misprediction recovery
// happened (which redirects fetch).
func (s *Sim) resolveDue() bool {
	recovered := false
	for s.pending.len() > 0 && s.pending.front().resolveCycle <= s.cycle {
		// Resolve through the slot pointer: popFront/clear only move
		// indices (slots are not zeroed and nothing pushes inside this
		// loop), so the entry stays intact while we read it and the
		// ~10-word copy is avoided.
		br := s.pending.front()
		s.pending.popFront()
		if br.indirect {
			if !br.isReturn {
				s.btb.Update(br.pc, br.target)
			}
			if br.mispredicted {
				s.pred.RestoreSnapshot(br.ckpt)
				s.ras.Restore(br.rasCkpt)
				s.squash()
				recovered = true
			}
			continue
		}
		// Concrete-type dispatch in place, as in onCondBranch. The
		// value-type estimator families' Resolve methods are empty, so
		// their case compiles to nothing.
		switch {
		case s.predG != nil:
			s.predG.Resolve(br.pc, br.info, br.outcome)
		case s.predM != nil:
			s.predM.Resolve(br.pc, br.info, br.outcome)
		case s.predS != nil:
			s.predS.Resolve(br.pc, br.info, br.outcome)
		default:
			s.pred.Resolve(br.pc, br.info, br.outcome)
		}
		correct := br.pred == br.outcome
		for i := range s.estFast {
			switch f := &s.estFast[i]; f.kind {
			case estJRS:
				f.jrs.Resolve(br.pc, br.info, correct)
			case estDist:
				f.dist.Resolve(br.pc, br.info, correct)
			case estSat, estSatMcF, estPattern, estStatic:
			default:
				s.ests[i].Resolve(br.pc, br.info, correct)
			}
		}
		if br.mispredicted {
			s.recoverPred(br.ckpt, br.pc, br.outcome)
			if s.ras != nil {
				s.ras.Restore(br.rasCkpt)
			}
			s.squash()
			// Detection resets the perceived distance counters.
			s.distPerceivedAll = 0
			s.distPerceivedComm = 0
			recovered = true
			// Younger pending entries are all wrong-path; squash()
			// discarded them.
		}
	}
	return recovered
}

// squash unwinds the wrong path: restores registers and memory, redirects
// fetch to the correct target, charges the recovery penalty, and drops
// the wrong-path pending entries.
func (s *Sim) squash() {
	if !s.wrongPath {
		panic("pipeline: squash outside wrong-path mode")
	}
	s.state.Regs = s.recoverRegs
	s.state.PC = s.recoverPC
	s.mem.Rollback()
	s.pending.clear() // everything younger was wrong-path
	s.wrongPath = false
	s.wrongPathIdle = false
	s.stats.Squashes++
	penalty := uint64(1 + s.cfg.ExtraMispredictPenalty)
	if s.stallUntil < s.cycle+penalty {
		s.stallUntil = s.cycle + penalty
		s.stallReason = BucketMispredictRecovery
	}
}

// onCondBranch handles prediction, confidence estimation, statistics and
// wrong-path entry for a conditional branch fetched at pc whose oracle
// outcome is known. It returns the PC the front end should follow.
func (s *Sim) onCondBranch(pc int64, outcome bool, takenTarget, notTakenTarget int64) int64 {
	// Predict and estimate through the concrete fast paths (see the
	// predG/predM/predS and estFast fields). The type switches live
	// here rather than in helpers so the small Predict and Estimate
	// bodies inline into this frame.
	var pred bool
	var ckpt bpred.Checkpoint
	var info bpred.Info
	switch {
	case s.predG != nil:
		pred, ckpt, info = s.predG.Predict(pc)
	case s.predM != nil:
		pred, ckpt, info = s.predM.Predict(pc)
	case s.predS != nil:
		pred, ckpt, info = s.predS.Predict(pc)
	default:
		pred, ckpt, info = s.pred.Predict(pc)
	}
	correct := pred == outcome
	var confMask uint64
	for i := range s.estFast {
		var hc bool
		switch f := &s.estFast[i]; f.kind {
		case estJRS:
			hc = f.jrs.Estimate(pc, info)
		case estDist:
			hc = f.dist.Estimate(pc, info)
		case estSat:
			hc = conf.SatCounters{}.Estimate(pc, info)
		case estSatMcF:
			hc = f.satM.Estimate(pc, info)
		case estPattern:
			hc = f.pat.Estimate(pc, info)
		case estStatic:
			hc = f.st.Estimate(pc, info)
		default:
			hc = s.ests[i].Estimate(pc, info)
		}
		s.hcScratch[i] = hc
		if hc {
			confMask |= 1 << uint(i)
		}
	}
	hc0 := true // first estimator's view, mirrored into CommittedQ/AllQ
	if len(s.hcScratch) > 0 {
		hc0 = s.hcScratch[0]
	}

	// --- statistics at fetch ---
	s.stats.AllBr++
	s.stats.AllQ.Record(correct, hc0)
	for i := range s.ests {
		s.stats.Confidence[i].AllQ.Record(correct, s.hcScratch[i])
	}
	s.distPreciseAll++
	s.distPerceivedAll++
	s.stats.PreciseAll.Record(s.distPreciseAll, !correct)
	s.stats.PerceivedAll.Record(s.distPerceivedAll, !correct)
	if !correct {
		s.distPreciseAll = 0
	}
	if !s.wrongPath {
		s.stats.CommittedBr++
		s.stats.CommittedQ.Record(correct, hc0)
		s.distPreciseCommitted++
		s.distPerceivedComm++
		s.stats.PreciseCommitted.Record(s.distPreciseCommitted, !correct)
		s.stats.PerceivedCommitted.Record(s.distPerceivedComm, !correct)
		if !correct {
			s.distPreciseCommitted = 0
		}
		for i := range s.ests {
			cs := &s.stats.Confidence[i]
			cs.CommittedQ.Record(correct, s.hcScratch[i])
			s.distMisest[i]++
			if misest := s.hcScratch[i] != correct; misest {
				cs.MisestCommitted.Record(s.distMisest[i], true)
				s.distMisest[i] = 0
			} else {
				cs.MisestCommitted.Record(s.distMisest[i], false)
			}
		}
		if s.stats.Sites != nil {
			st := s.stats.Sites[pc]
			if st == nil {
				st = &SiteStats{}
				s.stats.Sites[pc] = st
			}
			st.Total++
			if correct {
				st.Correct++
			}
		}
	}
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Branch(obs.BranchEvent{
			PC: pc, Pred: pred, Outcome: outcome, HighConf: hc0,
			WrongPath: s.wrongPath, Cycle: s.cycle, ConfMask: confMask,
		})
	}

	// --- machine behaviour ---
	predTarget := notTakenTarget
	if pred {
		predTarget = takenTarget
	}
	if s.wrongPath {
		// Inside an older misprediction's shadow the machine always
		// follows its prediction; this branch will be squashed before
		// it could trigger its own recovery.
		return predTarget
	}
	rasCkpt := 0
	if s.ras != nil {
		rasCkpt = s.ras.Checkpoint()
	}
	lowConf := len(s.ests) > 0 && !hc0
	// Field-by-field stores through the slot pointer: assigning a
	// composite literal builds the whole entry on the stack and
	// block-copies it into the ring. Every field is written, so no
	// stale value from the slot's previous occupant survives.
	e := s.pending.push(lowConf)
	e.pc, e.info, e.ckpt = pc, info, ckpt
	e.outcome, e.pred = outcome, pred
	e.resolveCycle = s.cycle + uint64(s.cfg.ResolveDelay)
	e.mispredicted = !correct
	e.lowConf = lowConf
	e.indirect, e.isReturn, e.target = false, false, 0
	e.rasCkpt = rasCkpt
	if correct {
		return predTarget
	}
	// Enter wrong-path mode: remember the correct continuation, fork
	// memory, and follow the (wrong) predicted path.
	s.wrongPath = true
	s.recoverRegs = s.state.Regs
	correctTarget := notTakenTarget
	if outcome {
		correctTarget = takenTarget
	}
	s.recoverPC = correctTarget
	s.mem.BeginJournal()
	return predTarget
}

// Tick advances the machine by one cycle: due branches resolve (possibly
// squashing), and — when fetchAllowed is true and the front end is not
// stalled — one fetch group is processed. External schedulers (SMT fetch
// policies, pipeline gating) drive the machine through Tick and decide
// fetchAllowed per cycle; Run is the trivial always-fetch driver.
//
// Tick returns done=true once the program has halted and all pending
// branches have drained, and an error if MaxCycles is exceeded.
//
// When Config.Policy is set, the policy is consulted here — before this
// cycle's branch resolutions, so it sees the same pending-branch state
// an external driver polling PendingLowConf before Tick would — and its
// verdict composes with fetchAllowed: an externally withheld cycle
// (fetchAllowed=false) skips the policy entirely, a policy width of 0
// gates the cycle exactly as fetchAllowed=false would, and a partial
// width limits this cycle's fetch group.
func (s *Sim) Tick(fetchAllowed bool) (done bool, err error) {
	if s.policy != nil && fetchAllowed {
		w := s.policy.Width(FetchSignal{
			Cycle:           s.cycle + 1,
			PendingLowConf:  s.PendingLowConf(),
			PendingBranches: s.pending.len(),
			FetchWidth:      s.cfg.FetchWidth,
		})
		switch {
		case w <= 0:
			fetchAllowed = false
		case w >= s.cfg.FetchWidth:
			s.fetchWidth = s.cfg.FetchWidth
		default:
			s.fetchWidth = w
		}
	}
	s.cycle++
	s.stats.Cycles = s.cycle
	if s.cfg.MaxCycles > 0 && s.cycle > s.cfg.MaxCycles {
		// The aborted cycle is already in Stats.Cycles; charge it as
		// idle wait so the accounting invariant survives error paths.
		s.account(BucketResolveWait)
		return false, fmt.Errorf("pipeline: %s exceeded %d cycles",
			s.prog.Name, s.cfg.MaxCycles)
	}
	if s.resolveDue() {
		s.account(BucketMispredictRecovery)
		return s.tickDone(), nil // redirect consumes the cycle
	}
	if s.halted {
		// Program done; any remaining cycles drain in-flight branches.
		s.account(BucketResolveWait)
		return s.tickDone(), nil
	}
	if !fetchAllowed || s.stallUntil > s.cycle || s.wrongPathIdle {
		switch {
		case s.stallUntil > s.cycle:
			s.account(s.stallReason)
		case s.wrongPathIdle:
			s.account(BucketWrongPathFetch)
		default: // !fetchAllowed, and the machine could otherwise fetch
			s.stats.GatedCycles++
			s.account(BucketGated)
		}
		return s.tickDone(), nil
	}
	s.account(s.fetchCycle())
	if s.cfg.MaxCommitted > 0 && s.stats.Committed >= s.cfg.MaxCommitted {
		s.halted = true
	}
	return s.tickDone(), nil
}

// account charges the current cycle to one bucket.
func (s *Sim) account(b CycleBucket) { s.stats.CycleAccounts[b]++ }

// tickDone publishes observability data on the configured interval and
// reports run completion.
func (s *Sim) tickDone() bool {
	if s.obsEvery != 0 {
		if s.obsLeft--; s.obsLeft == 0 {
			s.obsLeft = s.obsEvery
			s.publish()
		}
	}
	return s.finished()
}

// finished reports whether the run is fully complete: program halted and
// no branch left in flight.
func (s *Sim) finished() bool { return s.halted && s.pending.len() == 0 }

// Finish seals the statistics after the last Tick: rolls back any
// dangling wrong path and snapshots cache counters. Run calls it
// automatically; external schedulers must call it once when done. It
// returns a copy of the statistics, so a caller that keeps them (a
// trace cache, a cell memo) does not also keep the simulator's caches,
// tables and memory pages alive.
func (s *Sim) Finish() *Stats {
	if s.wrongPath {
		s.mem.Rollback()
		s.wrongPath = false
	}
	ih, im := s.icache.Stats()
	dh, dm := s.dcache.Stats()
	s.stats.ICacheHits, s.stats.ICacheMisses = ih, im
	s.stats.DCacheHits, s.stats.DCacheMisses = dh, dm
	if s.obsEvery != 0 {
		s.publish() // final values, so scrapes after the run are exact
	}
	st := s.stats
	return &st
}

// Done reports whether the simulation has fully completed.
func (s *Sim) Done() bool { return s.finished() }

// PendingLowConf returns the number of in-flight (fetched, unresolved)
// conditional branches whose first-estimator confidence estimate was low.
// Pipeline gating and SMT fetch policies key off this occupancy count,
// which the pending ring keeps as a running count.
func (s *Sim) PendingLowConf() int { return s.pending.lowConf() }

// PendingBranches returns the number of in-flight conditional branches.
func (s *Sim) PendingBranches() int { return s.pending.len() }

// Run executes the simulation until HALT or a configured limit and
// returns the statistics. A Sim is single-use.
func (s *Sim) Run() (*Stats, error) {
	for {
		done, err := s.Tick(true)
		if err != nil {
			return s.Finish(), err
		}
		if done {
			break
		}
	}
	return s.Finish(), nil
}

// fetchCycle fetches and functionally executes up to FetchWidth
// instructions and attributes the cycle: useful fetch when any
// correct-path instruction committed, wrong-path work when only
// wrong-path instructions advanced, otherwise whatever stopped the
// empty fetch group (cache miss, halt discovery).
func (s *Sim) fetchCycle() CycleBucket {
	c0, w0 := s.stats.Committed, s.stats.WrongPath
	empty := s.fetchGroup()
	switch {
	case s.stats.Committed > c0:
		return BucketUsefulFetch
	case s.stats.WrongPath > w0:
		return BucketWrongPathFetch
	default:
		return empty
	}
}

// stallBucket records why the front end is about to stall and returns
// the bucket for the stall cycles. Stalls incurred on the wrong path
// are misspeculation cost, whatever their proximate cause.
func (s *Sim) stallBucket(b CycleBucket) CycleBucket {
	if s.wrongPath {
		b = BucketWrongPathFetch
	}
	s.stallReason = b
	return b
}

// fetchGroup fetches and functionally executes up to fetchWidth
// instructions — Config.FetchWidth, or less when this cycle's policy
// verdict throttled the group — returning the cycle bucket to charge
// when the group fetched nothing at all.
func (s *Sim) fetchGroup() CycleBucket {
	for slot := 0; slot < s.fetchWidth; slot++ {
		pc := s.state.PC
		if !s.icache.Hit(pc) {
			if lat, hit := s.icache.Access(pc); !hit {
				// An I-cache miss stalls fetch for the fill latency.
				s.stallUntil = s.cycle + uint64(lat)
				return s.stallBucket(BucketICacheStall)
			}
		}
		in := s.fetchInstr(pc)

		if in.Op == isa.OpHalt {
			if s.wrongPath {
				// The wrong path ran off the program; idle until the
				// misprediction resolves.
				s.wrongPathIdle = true
				return BucketWrongPathFetch
			}
			s.halted = true
			return BucketResolveWait
		}

		if in.Op.IsCondBranch() {
			// Compute the oracle outcome without disturbing state:
			// branches read registers only.
			ra, rb := s.state.Regs[in.Ra], s.state.Regs[in.Rb]
			var outcome bool
			switch in.Op {
			case isa.OpBeq:
				outcome = ra == rb
			case isa.OpBne:
				outcome = ra != rb
			case isa.OpBlt:
				outcome = ra < rb
			default: // OpBge
				outcome = ra >= rb
			}
			takenTarget := pc + 1 + int64(in.Imm)
			// Count the branch on its own path before onCondBranch can
			// flip the machine into wrong-path mode: a mispredicted
			// correct-path branch still commits.
			s.countInstr()
			next := s.onCondBranch(pc, outcome, takenTarget, pc+1)
			s.state.PC = next
			if next != pc+1 {
				// A taken-path redirect ends the fetch group.
				return BucketUsefulFetch
			}
			continue
		}

		// Indirect control flow: predict the target before executing,
		// when the target predictors are enabled. The RAS checkpoint is
		// taken after the jump's own pop/push — the jump itself
		// commits; only younger operations are squashed.
		var predTarget int64
		var predIsReturn, haveTargetPred bool
		var rasCkpt int
		if s.ras != nil && in.Op == isa.OpJalr {
			predTarget, predIsReturn = s.predictTarget(pc, in)
			rasCkpt = s.ras.Checkpoint()
			haveTargetPred = true
		}

		// Non-branch: execute functionally (into the scratch result to
		// skip the by-value return copy — see Sim.execRes).
		res := &s.execRes
		emu.ExecInto(&s.state, s.mem, in, res)
		s.countInstr()
		if res.Mem.IsLoad || res.Mem.IsStore {
			if !s.dcache.Hit(res.Mem.Addr) {
				if dlat, dhit := s.dcache.Access(res.Mem.Addr); !dhit {
					// A D-cache miss stalls the pipe (simplified in-order
					// memory model).
					s.stallUntil = s.cycle + uint64(dlat)
					return s.stallBucket(BucketDCacheStall)
				}
			}
		}
		switch in.Op {
		case isa.OpJal:
			if s.ras != nil && in.Rd == isa.RA {
				s.ras.Push(pc + 1) // call: remember the return address
			}
			// Direct targets need no prediction.
			return BucketUsefulFetch
		case isa.OpJalr:
			if haveTargetPred {
				s.onIndirect(pc, predTarget, res.NextPC, predIsReturn, rasCkpt)
			}
			// Without target prediction the target is assumed perfect,
			// matching the paper's conditional-branch-only focus.
			return BucketUsefulFetch
		}
	}
	return BucketUsefulFetch
}

// predictTarget consults the RAS (for returns) or the BTB (for other
// indirect jumps) for the JALR at pc. A predictor miss predicts the
// fall-through, which a real front end would effectively do too.
func (s *Sim) predictTarget(pc int64, in isa.Instruction) (target int64, isReturn bool) {
	if in.Rd == isa.Zero && in.Ra == isa.RA && in.Imm == 0 {
		if !s.wrongPath {
			s.stats.Returns++
		}
		if target, ok := s.ras.Pop(); ok {
			return target, true
		}
		return pc + 1, true
	}
	if !s.wrongPath {
		s.stats.IndirectBr++
	}
	if in.Rd == isa.RA {
		// Indirect call: remember the return address.
		s.ras.Push(pc + 1)
	}
	if target, ok := s.btb.Lookup(pc); ok {
		return target, false
	}
	return pc + 1, false
}

// onIndirect compares the predicted and actual targets of a JALR; a
// mismatch on the correct path enters wrong-path mode exactly like a
// mispredicted conditional branch, except that the branch predictor's
// history is restored verbatim at recovery (no outcome bit to append).
// rasCkpt is the RAS state captured *before* the jump's own pop/push.
func (s *Sim) onIndirect(pc int64, predTarget, actual int64, isReturn bool, rasCkpt int) {
	mispredicted := predTarget != actual
	if s.wrongPath {
		// Inside an older misprediction's shadow: follow the predicted
		// target; the enclosing squash will clean up.
		s.state.PC = predTarget
		return
	}
	// Field by field, every field written (see onCondBranch).
	e := s.pending.push(false)
	e.pc, e.info, e.ckpt = pc, bpred.Info{}, s.pred.Snapshot()
	e.outcome, e.pred = false, false
	e.resolveCycle = s.cycle + uint64(s.cfg.ResolveDelay)
	e.mispredicted = mispredicted
	e.lowConf = false
	e.indirect, e.isReturn, e.target = true, isReturn, actual
	e.rasCkpt = rasCkpt
	if !mispredicted {
		return
	}
	s.stats.TargetMisp++
	s.wrongPath = true
	s.recoverRegs = s.state.Regs
	s.recoverPC = actual
	s.mem.BeginJournal()
	s.state.PC = predTarget
}

func (s *Sim) countInstr() {
	if s.wrongPath {
		s.stats.WrongPath++
	} else {
		s.stats.Committed++
	}
}

// Registers returns the current architectural registers (after Run, the
// committed state). Exposed for oracle cross-checks in tests.
func (s *Sim) Registers() [isa.NumRegs]int64 { return s.state.Regs }

// Memory returns the simulation's memory (after Run, committed state).
func (s *Sim) Memory() *mem.Memory { return s.mem }
