package replay

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"specctrl/internal/bpred"
	"specctrl/internal/conf"
	"specctrl/internal/obs"
	"specctrl/internal/pipeline"
)

// chunkTokens is the token capacity of one chunk. 64k tokens keep the
// per-chunk columns around a megabyte — big enough that chunk-crossing
// overhead vanishes, small enough that the codec never needs giant
// up-front allocations when decoding untrusted input.
const chunkTokens = 1 << 16

// Fetch-event flag bits (chunk.flg).
const (
	fPred      = 1 << iota // predicted direction
	fP1                    // McFarling component prediction 1
	fP2                    // McFarling component prediction 2
	fCorrect               // prediction matched the oracle outcome
	fCommitted             // fetched on the committed (correct) path
)

// chunk is one fixed-capacity run of tokens. kinds holds one bit per
// token (set = fetch event, clear = resolve event); the columnar
// slices hold one entry per *fetch* token, in token order. pc and hist
// are stored narrow: PCs are instruction indices and predictor
// histories are masked to at most 30 bits, so both fit 32 bits (the
// recorder rejects a value that does not, rather than truncating it).
type chunk struct {
	n     int      // tokens used
	kinds []uint64 // ⌈n/64⌉ words of token-kind bits
	pc    []int32
	hist  []uint32
	ctr   []uint8 // packed counters: C1 | C2<<2 | Meta<<4
	flg   []uint8 // fPred | fP1 | fP2 | fCorrect | fCommitted
}

// full reports whether the chunk has reached capacity.
func (c *chunk) full() bool { return c.n == chunkTokens }

// setKind marks token i as a fetch event.
func (c *chunk) setFetch(i int) { c.kinds[i>>6] |= 1 << (uint(i) & 63) }

// isFetch reports whether token i is a fetch event.
func (c *chunk) isFetch(i int) bool { return c.kinds[i>>6]&(1<<(uint(i)&63)) != 0 }

// bytes estimates the chunk's retained memory from slice capacities.
func (c *chunk) bytes() int {
	return cap(c.kinds)*8 + cap(c.pc)*4 + cap(c.hist)*4 + cap(c.ctr) + cap(c.flg)
}

// Trace is one simulation's recorded branch event stream. A Trace is
// immutable once obtained from Recorder.Trace or Decode and is safe
// for concurrent Replay calls.
type Trace struct {
	chunks  []*chunk
	fetches int // total fetch tokens
	tokens  int // total tokens (fetches + resolves)
}

// Events returns the total token count (fetch + resolve events).
func (t *Trace) Events() int { return t.tokens }

// Fetches returns the number of fetch events.
func (t *Trace) Fetches() int { return t.fetches }

// Bytes estimates the trace's retained memory; the trace cache's LRU
// budget accounts entries with it.
func (t *Trace) Bytes() int {
	n := 0
	for _, c := range t.chunks {
		n += c.bytes()
	}
	return n
}

// Sites folds the trace's committed fetch events into per-branch-site
// prediction accuracy: exactly the profile a run of the recorded
// configuration accumulates under pipeline.Config.CollectSiteStats,
// which counts the same committed fetches with the same correctness.
func (t *Trace) Sites() map[int64]*pipeline.SiteStats {
	sites := make(map[int64]*pipeline.SiteStats)
	for _, c := range t.chunks {
		for i, flg := range c.flg {
			if flg&fCommitted == 0 {
				continue
			}
			pc := int64(c.pc[i])
			s := sites[pc]
			if s == nil {
				s = &pipeline.SiteStats{}
				sites[pc] = s
			}
			s.Total++
			if flg&fCorrect != 0 {
				s.Correct++
			}
		}
	}
	return sites
}

// packInfo packs the three 2-bit counters of a bpred.Info.
func packInfo(info bpred.Info) uint8 {
	return uint8(info.C1&3) | uint8(info.C2&3)<<2 | uint8(info.Meta&3)<<4
}

// Recorder captures the estimator-visible event stream of one run. It
// plugs into the pipeline through two existing observation points — as
// a conf.Estimator (attach as the only entry of Config.Estimators) and
// as the run's obs.Tracer — so the simulator needs no changes:
//
//   - Estimate stashes the fetch-time (pc, Info) pair;
//   - Branch (called by the simulator immediately after the estimate
//     fan-out for the same branch) completes the fetch event with the
//     prediction's correctness and the committed/wrong-path flag;
//   - Resolve appends a payload-free resolve token.
//
// A pc outside int32 or a history wider than 32 bits fails the
// recording (see chunk) instead of being stored truncated.
//
// Estimate always returns high confidence, so the base Stats of the
// recording run (CommittedQ/AllQ and every estimator-independent
// field) are identical to a run with no estimators attached.
//
// A Recorder is single-run, single-goroutine state, like the simulator
// that drives it.
type Recorder struct {
	t   Trace
	cur *chunk

	pendPC   int64
	pendInfo bpred.Info
	havePend bool
	err      error
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Name implements conf.Estimator.
func (r *Recorder) Name() string { return "trace-recorder" }

// Estimate implements conf.Estimator: it stashes the fetch-time pair
// for the Branch callback and reports high confidence.
func (r *Recorder) Estimate(pc int64, info bpred.Info) bool {
	if r.havePend && r.err == nil {
		r.err = fmt.Errorf("replay: Estimate(pc=%#x) before previous fetch event was completed", pc)
	}
	r.pendPC, r.pendInfo, r.havePend = pc, info, true
	return true
}

// Branch implements obs.Tracer: it completes the fetch event the
// preceding Estimate call opened.
func (r *Recorder) Branch(ev obs.BranchEvent) {
	if !r.havePend || ev.PC != r.pendPC {
		if r.err == nil {
			r.err = fmt.Errorf("replay: Branch(pc=%#x) does not match a pending Estimate", ev.PC)
		}
		return
	}
	r.havePend = false
	if r.pendPC != int64(int32(r.pendPC)) || r.pendInfo.Hist > math.MaxUint32 {
		if r.err == nil {
			r.err = fmt.Errorf("replay: fetch event (pc=%#x, hist=%#x) does not fit the trace's 32-bit columns",
				r.pendPC, r.pendInfo.Hist)
		}
		return
	}
	var flg uint8
	if r.pendInfo.Pred {
		flg |= fPred
	}
	if r.pendInfo.P1 {
		flg |= fP1
	}
	if r.pendInfo.P2 {
		flg |= fP2
	}
	if ev.Pred == ev.Outcome {
		flg |= fCorrect
	}
	if !ev.WrongPath {
		flg |= fCommitted
	}
	c := r.chunk()
	c.setFetch(c.n)
	c.n++
	c.pc = append(c.pc, int32(r.pendPC))
	c.hist = append(c.hist, uint32(r.pendInfo.Hist))
	c.ctr = append(c.ctr, packInfo(r.pendInfo))
	c.flg = append(c.flg, flg)
	r.t.fetches++
	r.t.tokens++
}

// Resolve implements conf.Estimator: committed branches resolve in
// fetch order with fetch-time arguments, so the token needs no payload.
func (r *Recorder) Resolve(pc int64, info bpred.Info, correct bool) {
	c := r.chunk()
	c.n++ // kind bit stays clear: resolve token
	r.t.tokens++
}

// Close implements obs.Tracer (the recorder has nothing to flush).
func (r *Recorder) Close() error { return nil }

// chunk returns the current chunk, opening a new one at capacity.
func (r *Recorder) chunk() *chunk {
	if r.cur == nil || r.cur.full() {
		r.cur = &chunk{kinds: make([]uint64, chunkTokens/64)}
		r.t.chunks = append(r.t.chunks, r.cur)
	}
	return r.cur
}

// Trace returns the finished recording. It fails if the event stream
// was malformed (an Estimate without its Branch completion, or vice
// versa), which would mean the recorder was not driven by the pipeline
// contract it encodes.
func (r *Recorder) Trace() (*Trace, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.havePend {
		return nil, errors.New("replay: recording ended with an incomplete fetch event")
	}
	return &r.t, nil
}

// resolveRec is one committed fetch event awaiting its resolve token.
type resolveRec struct {
	pc      int64
	info    bpred.Info
	correct bool
}

// estKind tags the concrete estimator families with devirtualized call
// sites, mirroring the simulator's hot-path dispatch (see pipeline's
// estFast): interface calls per event per estimator dominate replay
// cost, and the common families are all concrete types the compiler
// can inline once the switch names them.
type estKind uint8

const (
	estGeneric estKind = iota
	estJRS
	estCIR
	estGMDC
	estDist
	estJRSMcF
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
	cir  *conf.OnesCount
	gmdc *conf.GlobalMDCIndexed
	dist *conf.Distance
	jmcf *conf.JRSMcFarling
	satM conf.SatCountersMcFarling
	pat  conf.PatternHistory
	st   conf.Static
}

func newEstFast(e conf.Estimator) estFast {
	switch v := e.(type) {
	case *conf.JRS:
		return estFast{kind: estJRS, jrs: v}
	case *conf.OnesCount:
		return estFast{kind: estCIR, cir: v}
	case *conf.GlobalMDCIndexed:
		return estFast{kind: estGMDC, gmdc: v}
	case *conf.Distance:
		return estFast{kind: estDist, dist: v}
	case *conf.JRSMcFarling:
		return estFast{kind: estJRSMcF, jmcf: v}
	case conf.SatCounters:
		return estFast{kind: estSat}
	case conf.SatCountersMcFarling:
		return estFast{kind: estSatMcF, satM: v}
	case conf.PatternHistory:
		return estFast{kind: estPattern, pat: v}
	case conf.Static:
		return estFast{kind: estStatic, st: v}
	}
	return estFast{}
}

func (f *estFast) estimate(ests []conf.Estimator, i int, pc int64, info bpred.Info) bool {
	switch f.kind {
	case estJRS:
		return f.jrs.Estimate(pc, info)
	case estCIR:
		return f.cir.Estimate(pc, info)
	case estGMDC:
		return f.gmdc.Estimate(pc, info)
	case estDist:
		return f.dist.Estimate(pc, info)
	case estJRSMcF:
		return f.jmcf.Estimate(pc, info)
	case estSat:
		return conf.SatCounters{}.Estimate(pc, info)
	case estSatMcF:
		return f.satM.Estimate(pc, info)
	case estPattern:
		return f.pat.Estimate(pc, info)
	case estStatic:
		return f.st.Estimate(pc, info)
	}
	return ests[i].Estimate(pc, info)
}

func (f *estFast) resolve(ests []conf.Estimator, i int, pc int64, info bpred.Info, correct bool) {
	switch f.kind {
	case estJRS:
		f.jrs.Resolve(pc, info, correct)
	case estCIR:
		f.cir.Resolve(pc, info, correct)
	case estGMDC:
		f.gmdc.Resolve(pc, info, correct)
	case estDist:
		f.dist.Resolve(pc, info, correct)
	case estJRSMcF:
		f.jmcf.Resolve(pc, info, correct)
	case estSat, estSatMcF, estPattern, estStatic:
		// Value-type families keep no per-branch state; Resolve is empty.
	default:
		ests[i].Resolve(pc, info, correct)
	}
}

// groupKey is a threshold-sweepable estimator's configuration minus its
// threshold: estimators with equal keys keep identical state forever.
type groupKey struct {
	kind     estKind
	entries  int
	bits     uint
	enhanced bool
}

// sweepKey reports whether the estimator's state is independent of its
// threshold and, if so, its group key and the level at or above which
// it reports high confidence (see thresholdGroup.fetch). Distance
// reports high confidence when its count exceeds the threshold, i.e.
// from level Threshold+1.
func (f *estFast) sweepKey() (key groupKey, hcFrom int, ok bool) {
	switch f.kind {
	case estJRS:
		c := f.jrs.Config()
		return groupKey{estJRS, c.Entries, c.Bits, c.Enhanced}, c.Threshold, true
	case estCIR:
		c := f.cir.Config()
		return groupKey{estCIR, c.Entries, c.Bits, c.Enhanced}, c.Threshold, true
	case estGMDC:
		c := f.gmdc.Config()
		return groupKey{estGMDC, c.Entries, c.Bits, c.Enhanced}, c.Threshold, true
	case estDist:
		return groupKey{kind: estDist}, f.dist.Threshold + 1, true
	}
	return groupKey{}, 0, false
}

// thresholdGroup is a set of estimators identical except for their
// threshold. JRS, CIR, gMDC-CIR and Distance state evolves from the
// index function and the fetch/resolve sequence alone — the threshold is
// compared at Estimate time, never stored — so every member's state is
// forever identical and one level read (and one Resolve) serves the
// whole group: the sweep evaluates one level against many thresholds.
// This is the replay path's structural advantage over direct
// simulation, where each estimator is a black box behind the Estimator
// interface.
type thresholdGroup struct {
	lead       estFast // first member's dispatch; the only state that trains
	members    []int   // estimator indices, sorted by threshold
	thresholds []int   // members' high-confidence levels (sweepKey), ascending, parallel to members
}

// fetch applies one fetch event to every group member. It reads the
// leader's level once — the JRS counter, the selected CIR's popcount, or
// the Distance count, which every member compares against its own
// threshold. Distance counts the fetched branch as part of the read (its
// Estimate advances the count whatever the threshold), so the leader
// advances exactly once per fetch event, wrong-path fetches included.
// With thresholds ascending, one scan then finds the high/low-confidence
// split for this level; each side of the split updates its quadrant
// cells with the branchy decisions (correct × hc × misestimate) already
// made.
func (g *thresholdGroup) fetch(confs []pipeline.ConfStats, dist []int, pc int64, info bpred.Info, correct, committed bool) {
	var lvl int
	switch f := &g.lead; f.kind { // inline: a separate level method measured slower on BenchmarkReplayJRSSweep
	case estJRS:
		lvl = f.jrs.Counter(pc, info)
	case estCIR:
		lvl = f.cir.Ones(pc, info)
	case estGMDC:
		lvl = f.gmdc.Ones()
	default: // estDist
		lvl = f.dist.Count()
		f.dist.Estimate(pc, info)
	}
	ths := g.thresholds
	split := 0
	for split < len(ths) && lvl >= ths[split] {
		split++
	}
	mem := g.members
	switch {
	case correct && committed:
		for _, i := range mem[:split] { // high confidence, estimate right
			cs := &confs[i]
			cs.AllQ.Chc++
			cs.CommittedQ.Chc++
			dist[i]++
			cs.MisestCommitted.Record(dist[i], false)
		}
		for _, i := range mem[split:] { // low confidence: a mis-estimate
			cs := &confs[i]
			cs.AllQ.Clc++
			cs.CommittedQ.Clc++
			dist[i]++
			cs.MisestCommitted.Record(dist[i], true)
			dist[i] = 0
		}
	case committed: // mispredicted: high confidence is the mis-estimate
		for _, i := range mem[:split] {
			cs := &confs[i]
			cs.AllQ.Ihc++
			cs.CommittedQ.Ihc++
			dist[i]++
			cs.MisestCommitted.Record(dist[i], true)
			dist[i] = 0
		}
		for _, i := range mem[split:] {
			cs := &confs[i]
			cs.AllQ.Ilc++
			cs.CommittedQ.Ilc++
			dist[i]++
			cs.MisestCommitted.Record(dist[i], false)
		}
	case correct:
		for _, i := range mem[:split] {
			confs[i].AllQ.Chc++
		}
		for _, i := range mem[split:] {
			confs[i].AllQ.Clc++
		}
	default:
		for _, i := range mem[:split] {
			confs[i].AllQ.Ihc++
		}
		for _, i := range mem[split:] {
			confs[i].AllQ.Ilc++
		}
	}
}

// byThreshold sorts a group's parallel members/thresholds slices by
// threshold, ties broken by estimator index for determinism.
type byThreshold struct{ g *thresholdGroup }

func (s byThreshold) Len() int { return len(s.g.members) }
func (s byThreshold) Less(a, b int) bool {
	if s.g.thresholds[a] != s.g.thresholds[b] {
		return s.g.thresholds[a] < s.g.thresholds[b]
	}
	return s.g.members[a] < s.g.members[b]
}
func (s byThreshold) Swap(a, b int) {
	s.g.members[a], s.g.members[b] = s.g.members[b], s.g.members[a]
	s.g.thresholds[a], s.g.thresholds[b] = s.g.thresholds[b], s.g.thresholds[a]
}

// evaluator drives one estimator batch through a replayed stream: it
// owns the per-estimator results and the dispatch plan — threshold
// groups plus devirtualized solo estimators. Grouping assumes
// group members have identical state — true whenever they were
// constructed fresh for this replay (the same freshness direct
// simulation needs, since estimators train during a run) and preserved
// by replay itself, because identical call sequences keep the state
// identical.
type evaluator struct {
	ests   []conf.Estimator
	fast   []estFast
	groups []thresholdGroup
	solo   []int // estimators estimated one by one
	train  []int // estimators that resolve: solo plus each group's leader
	confs  []pipeline.ConfStats
	dist   []int
}

func newEvaluator(ests []conf.Estimator) *evaluator {
	e := &evaluator{
		ests:  ests,
		fast:  make([]estFast, len(ests)),
		confs: make([]pipeline.ConfStats, len(ests)),
		dist:  make([]int, len(ests)),
	}
	var groups []thresholdGroup
	byKey := map[groupKey]int{} // config minus threshold → groups index
	for i, est := range ests {
		e.confs[i].Name = est.Name()
		e.fast[i] = newEstFast(est)
		key, th, ok := e.fast[i].sweepKey()
		if !ok {
			e.solo = append(e.solo, i)
			continue
		}
		gi, seen := byKey[key]
		if !seen {
			gi = len(groups)
			byKey[key] = gi
			groups = append(groups, thresholdGroup{lead: e.fast[i]})
		}
		groups[gi].members = append(groups[gi].members, i)
		groups[gi].thresholds = append(groups[gi].thresholds, th)
	}
	for _, g := range groups {
		// Singleton groups gain nothing from the shared-level path; fold
		// them back into the solo list to keep one dispatch shape per size.
		if len(g.members) == 1 {
			e.solo = append(e.solo, g.members[0])
			continue
		}
		e.train = append(e.train, g.members[0]) // the leader, before sorting
		// Ascending thresholds let fetch find the high/low-confidence
		// boundary for a level with a single scan.
		sort.Sort(byThreshold{&g})
		e.groups = append(e.groups, g)
	}
	sort.Ints(e.solo)
	e.train = append(e.train, e.solo...)
	sort.Ints(e.train)
	return e
}

// fetch applies one fetch event to every estimator: Estimate plus the
// fetch-time quadrant bookkeeping.
func (e *evaluator) fetch(pc int64, info bpred.Info, correct, committed bool) {
	for gi := range e.groups {
		e.groups[gi].fetch(e.confs, e.dist, pc, info, correct, committed)
	}
	for _, i := range e.solo {
		hc := e.fast[i].estimate(e.ests, i, pc, info)
		recordFetch(&e.confs[i], &e.dist[i], hc, correct, committed)
	}
}

// resolve applies one resolved branch to each solo estimator and each
// group's leader; the other members share the leader's state.
func (e *evaluator) resolve(pc int64, info bpred.Info, correct bool) {
	for _, i := range e.train {
		e.fast[i].resolve(e.ests, i, pc, info, correct)
	}
}

// recordFetch applies the simulator's fetch-time confidence bookkeeping
// for one estimator (see onCondBranch): quadrants over all fetched
// branches, and over committed branches the committed quadrants plus
// the mis-estimation distance histogram with its reset-on-misestimate
// distance counter.
func recordFetch(cs *pipeline.ConfStats, dist *int, hc, correct, committed bool) {
	cs.AllQ.Record(correct, hc)
	if committed {
		cs.CommittedQ.Record(correct, hc)
		*dist++
		if hc != correct {
			cs.MisestCommitted.Record(*dist, true)
			*dist = 0
		} else {
			cs.MisestCommitted.Record(*dist, false)
		}
	}
}

// Replay evaluates ests against the recorded stream and returns one
// pipeline.ConfStats per estimator — bit-identical to what a direct
// simulation with the same estimators attached would have produced in
// Stats.Confidence. The steady-state loop is allocation-free; the only
// allocations are the per-call result and scratch slices.
//
// Estimators are driven exactly as the pipeline drives them: Estimate
// per fetch event in stream order, Resolve per resolve token with the
// corresponding committed fetch's pc/Info/correctness. Stateful
// estimators therefore train identically, with one deliberate
// exception: JRS, CIR (OnesCount), gMDC-CIR (GlobalMDCIndexed) and
// Distance estimators that differ only in threshold share one state
// (see thresholdGroup), so only the group leader trains — the returned
// statistics are unaffected, but non-leader instances should be
// discarded after the call. Estimators must be freshly constructed
// (untrained), the same requirement direct simulation imposes, and must
// not share mutable state with each other or with estimators being
// replayed concurrently elsewhere.
func Replay(t *Trace, ests []conf.Estimator) []pipeline.ConfStats {
	ev := newEvaluator(ests)

	// FIFO of committed-but-unresolved fetches. Occupancy is bounded by
	// the simulator's in-flight branch capacity (a few tens of entries);
	// the ring grows only if a trace from a deeper configuration needs it.
	ring := make([]resolveRec, 64)
	head, count := 0, 0

	for _, c := range t.chunks {
		fi := 0
		for k := 0; k < c.n; k++ {
			if !c.isFetch(k) {
				if count == 0 {
					continue // tolerate a truncated decode; cannot happen on recorded traces
				}
				rr := &ring[head]
				ev.resolve(rr.pc, rr.info, rr.correct)
				head = (head + 1) & (len(ring) - 1)
				count--
				continue
			}
			pc := int64(c.pc[fi])
			flg := c.flg[fi]
			ctr := c.ctr[fi]
			info := bpred.Info{
				Pred: flg&fPred != 0,
				Hist: uint64(c.hist[fi]),
				C1:   bpred.Counter2(ctr & 3),
				C2:   bpred.Counter2(ctr >> 2 & 3),
				Meta: bpred.Counter2(ctr >> 4 & 3),
				P1:   flg&fP1 != 0,
				P2:   flg&fP2 != 0,
			}
			fi++
			correct := flg&fCorrect != 0
			committed := flg&fCommitted != 0
			ev.fetch(pc, info, correct, committed)
			if committed {
				if count == len(ring) {
					ring = growRing(ring, head)
					head = 0
				}
				ring[(head+count)&(len(ring)-1)] = resolveRec{pc: pc, info: info, correct: correct}
				count++
			}
		}
	}
	return ev.confs
}

// growRing doubles a full ring, re-basing the occupied run at index 0.
func growRing(ring []resolveRec, head int) []resolveRec {
	next := make([]resolveRec, len(ring)*2)
	n := copy(next, ring[head:])
	copy(next[n:], ring[:head])
	return next
}
