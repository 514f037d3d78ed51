package replay

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"specctrl/internal/bpred"
	"specctrl/internal/conf"
	"specctrl/internal/metrics"
	"specctrl/internal/pipeline"
)

// estKind tags the concrete estimator families with devirtualized call
// sites, mirroring the simulator's hot-path dispatch (see pipeline's
// estFast): the common families are all concrete types the compiler
// can inline once the unit's loop names them.
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
// it reports high confidence. Distance reports high confidence when its
// count exceeds the threshold, i.e. from level Threshold+1 (saturating:
// no count reaches math.MaxInt).
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
		return groupKey{kind: estDist}, min(f.dist.Threshold, math.MaxInt-1) + 1, true
	}
	return groupKey{}, 0, false
}

// viewTokens is the token span of one view window: small enough that
// a window's scratch stays cache-resident while every unit walks it,
// large enough that per-window dispatch costs vanish.
const viewTokens = 1 << 12

// setInfo rebuilds, field by field in place, the bpred.Info a fetch
// event carried. Building it in place rather than returning it keeps
// the unit loops from loading a struct straight after its narrow field
// stores, which the store buffer cannot forward.
func setInfo(in *bpred.Info, hist uint32, ctr, flg uint8) {
	in.Pred = flg&fPred != 0
	in.Hist = uint64(hist)
	in.C1 = bpred.Counter2(ctr & 3)
	in.C2 = bpred.Counter2(ctr >> 2 & 3)
	in.Meta = bpred.Counter2(ctr >> 4 & 3)
	in.P1 = flg&fP1 != 0
	in.P2 = flg&fP2 != 0
}

// view is the transient evaluation view of one window of a chunk.
// Replay walks each chunk once, window by window, and every dispatch
// unit walks each window in turn. The view's rows are columns — pcAll,
// flgAll and the rebuilt bpred.Info in infoAll — holding first the
// committed fetches carried over unresolved from earlier windows, then
// the window's own fetch rows:
//
//   - pc, flg, info: the window's fetch rows (the tail of the columns);
//   - res: for each resolve token, in order, the row of the committed
//     fetch it resolves (the simulator resolves committed branches in
//     fetch order with their fetch-time arguments);
//   - before: the fetch/resolve interleaving — before[i] is the number
//     of resolve tokens between fetch row i-1 and fetch row i, and the
//     extra last entry counts the window's trailing resolves.
//
// The view is scratch for one Replay call; nothing of it is kept on the
// Trace.
type view struct {
	pc     []int32
	flg    []uint8
	info   []bpred.Info
	res    []int32
	before []int32

	splits []int32 // a unit's per-fetch-row split, rewritten by each unit

	rb   rebuild  // the chunk's history rule state
	hist []uint32 // the window's rebuilt histories

	pcAll   []int32
	flgAll  []uint8
	infoAll []bpred.Info
	pend    []int32 // committed rows in fetch order; res is its resolved prefix
}

// init sizes the scratch for t's largest window, so a recorded trace
// never grows it. The int32 scratch shares one allocation.
func (v *view) init(t *Trace) {
	toks := min(t.tokens, viewTokens)
	rows := toks + 64 // a window's fetches plus a pipeline's worth in flight
	arena := make([]int32, 2*toks+1+2*rows)
	carve := func(n int) []int32 {
		s := arena[:n:n]
		arena = arena[n:]
		return s
	}
	v.splits = carve(toks)
	v.pcAll = carve(rows)
	v.pend = carve(rows)[:0]
	v.before = carve(toks + 1)
	v.flgAll = make([]uint8, rows)
	v.infoAll = make([]bpred.Info, rows)
	arr := new(struct {
		hist [viewTokens]uint32
		rb   rebuildArrays
	})
	v.hist = arr.hist[:toks]
	v.rb.init(&arr.rb)
}

// load builds the view of tokens [k, end) of chunk c, whose first fetch
// row is fi, and returns the fetch row after the window. Windows of a
// chunk load in order, after v.rb.start(c). A resolve
// token with no committed fetch pending is dropped: Decode rejects such
// streams and the recorder cannot produce one, so this only keeps
// Replay total.
func (v *view) load(c *chunk, k, end, fi int) int {
	carried := len(v.pend) // rows [0, carried) are pending from earlier windows
	nf := c.fetches(k, end)
	if rows := carried + nf; rows > len(v.infoAll) {
		v.grow(rows)
	}
	pc, flg, info := v.pcAll[carried:carried+nf], v.flgAll[carried:carried+nf], v.infoAll[carried:carried+nf]
	copy(flg, c.flg[fi:fi+nf])
	c.pc.fill(fi, pc)
	hist := v.hist[:nf]
	v.rb.hists(c, k, end, fi, hist, nil)
	if c.ctr != nil {
		ctr := c.ctr[fi : fi+nf]
		for i := range info {
			setInfo(&info[i], hist[i], flg[i]>>c1Shift|ctr[i], flg[i])
		}
	} else {
		for i := range info {
			setInfo(&info[i], hist[i], flg[i]>>c1Shift, flg[i])
		}
	}
	v.pc, v.flg, v.info = pc, flg, info

	// One pass over the window's fetch tokens, lowest set kind bit
	// first: the gap to the previous fetch token is the resolves between.
	before := v.before[:nf+1]
	v.before = before
	pend, resolved := v.pend, 0
	row, prev := carried, k-1 // prev: token index of the previous fetch
	for i := k; i < end; {
		n := min(64-i&63, end-i)
		w := c.kinds[i>>6] >> (uint(i) & 63) & (1<<n - 1)
		for w != 0 {
			pos := i + bits.TrailingZeros64(w)
			w &= w - 1
			r := min(pos-prev-1, len(pend)-resolved)
			before[row-carried] = int32(r)
			resolved += r
			prev = pos
			if v.flgAll[row]&fCommitted != 0 {
				pend = append(pend, int32(row))
			}
			row++
		}
		i += n
	}
	r := min(end-prev-1, len(pend)-resolved)
	before[nf] = int32(r)
	resolved += r
	v.pend, v.res = pend, pend[:resolved]
	return fi + nf
}

// grow reallocates the row columns for at least rows rows, keeping the
// carried prefix.
func (v *view) grow(rows int) {
	carried := len(v.pend)
	pc, flg, info := make([]int32, rows), make([]uint8, rows), make([]bpred.Info, rows)
	copy(pc, v.pcAll[:carried])
	copy(flg, v.flgAll[:carried])
	copy(info, v.infoAll[:carried])
	v.pcAll, v.flgAll, v.infoAll = pc, flg, info
}

// advance moves the rows still awaiting their resolve to the head of
// the columns, in order, for the next window. Each moves to a position
// at or before its own, so the in-place copy never overwrites a row it
// still has to move.
func (v *view) advance() {
	keep := v.pend[len(v.res):]
	for j, row := range keep {
		v.pcAll[j], v.flgAll[j], v.infoAll[j] = v.pcAll[row], v.flgAll[row], v.infoAll[row]
	}
	v.pend = v.pend[:len(keep)]
	for j := range v.pend {
		v.pend[j] = int32(j)
	}
}

// member is one estimator of a dispatch unit together with its
// mis-estimation runs. A run is the stretch of committed branches from
// just after one mis-estimate up to and including the next; a run of
// length L adds one branch at each distance 1..L to MisestCommitted
// (clamped into the last bucket) and one mis-estimate at distance L.
type member struct {
	est    int                              // index into Replay's estimator list
	unit   int                              // owning unit (planning only)
	level  int                              // groups: level from which the member is high confidence
	last   int                              // committed position of the member's last mis-estimate
	over   uint64                           // Σ (L − 62) over closed runs with L ≥ 63
	closed [pipeline.DistanceBuckets]uint64 // closed runs by min(L, 63)
}

// close ends the member's current run with a mis-estimate at committed
// position pos.
func (m *member) close(pos int) {
	const top = pipeline.DistanceBuckets - 1
	l := pos - m.last
	m.last = pos
	if l >= top {
		m.over += uint64(l - (top - 1))
		l = top
	}
	m.closed[l]++
}

// histogram rebuilds the member's MisestCommitted from its run lengths,
// the still-open tail run (pos − last committed branches with no
// mis-estimate yet) included: bucket d < 63 counts every run of length
// at least d, bucket 63 counts each long run's L − 62 branches at
// distance 63 or more, and the mis-estimate at distance L lands in
// bucket min(L, 63).
func (m *member) histogram(h *pipeline.DistanceHist, pos int) {
	const top = pipeline.DistanceBuckets - 1
	tail := pos - m.last
	h.Mispredict[top] = m.closed[top]
	h.Total[top] = m.over
	if tail >= top {
		h.Total[top] += uint64(tail - (top - 1))
	}
	atLeast := m.closed[top]
	for d := top - 1; d >= 1; d-- {
		atLeast += m.closed[d]
		h.Mispredict[d] = m.closed[d]
		h.Total[d] = atLeast
		if tail >= d {
			h.Total[d]++
		}
	}
}

// splitCap bounds a group's level → split table; levels above it (only
// in groups with bounds that high) scan the members.
const splitCap = 1 << 10

// unit is one dispatch unit: a threshold group — every JRS, CIR,
// gMDC-CIR or Distance estimator of one configuration minus threshold,
// sharing the first member's state — or one solo estimator of any other
// family. Grouping assumes the members' states are identical — true
// whenever they were constructed fresh for this replay (the same
// freshness direct simulation needs, since estimators train during a
// run) and preserved by replay itself, because identical call sequences
// keep the state identical.
//
// Members are ordered by level, so on each fetch a prefix of them —
// split members — reports high confidence. quad counts fetches by
// [split][correct | committed<<1]; a solo member's split is 1 when it
// reports high confidence.
type unit struct {
	estFast                // the leader's concrete dispatch
	est     conf.Estimator // the leader, for interface dispatch
	members []member
	splitAt []int32  // groups: level → split, for levels up to the table's end
	quad    []uint64 // [split][correct | committed<<1], flattened
	pos     int      // committed fetches so far

	stLo  int    // static: pc of stTab[0]
	stTab []bool // static: dense HighConfidence over the trace's pc range
}

// split returns how many members report high confidence at level lvl.
func (u *unit) split(lvl int) int32 {
	if lvl < len(u.splitAt) {
		return u.splitAt[lvl]
	}
	s := int(u.splitAt[len(u.splitAt)-1])
	for s < len(u.members) && lvl >= u.members[s].level {
		s++
	}
	return int32(s)
}

// fold tallies one window's fetch rows given each row's split. On a
// committed branch only the mis-estimating members do work: the
// low-confidence suffix when the prediction was correct, the
// high-confidence prefix when it was not.
func (u *unit) fold(splits []int32, flg []uint8) {
	quad, ms, pos := u.quad, u.members, u.pos
	for i, f := range flg {
		s := int(splits[i])
		cc := int(f>>3) & 3 // fCorrect | fCommitted<<1
		quad[s<<2|cc]++
		pos += cc >> 1
		lo, hi := s, len(ms)
		if cc&1 == 0 {
			lo, hi = 0, s
		}
		if cc < 2 {
			hi = lo
		}
		for p := lo; p < hi; p++ {
			ms[p].close(pos)
		}
	}
	u.pos = pos
}

// finish writes every member's statistics: the quadrants from the
// split counts (member p is high confidence on fetches whose split
// exceeds p) and the histogram from its runs.
func (u *unit) finish(confs []pipeline.ConfStats) {
	var total, lc [4]uint64
	for k, n := range u.quad {
		total[k&3] += n
	}
	for p := range u.members {
		m := &u.members[p]
		var hc [4]uint64
		for c := range lc {
			lc[c] += u.quad[p<<2|c]
			hc[c] = total[c] - lc[c]
		}
		cs := &confs[m.est]
		cs.AllQ = metrics.Quadrant{Chc: hc[1] + hc[3], Ihc: hc[0] + hc[2], Clc: lc[1] + lc[3], Ilc: lc[0] + lc[2]}
		cs.CommittedQ = metrics.Quadrant{Chc: hc[3], Ihc: hc[2], Clc: lc[3], Ilc: lc[2]}
		m.histogram(&cs.MisestCommitted, u.pos)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// run applies the window's view to the unit: its family's loop writes
// each fetch row's split, then fold tallies them. Value-type families
// keep no per-branch state and have empty Resolve methods, so their
// loops read the fetch rows only.
func (u *unit) run(v *view) {
	sp := v.splits[:len(v.flg)]
	switch u.kind {
	case estJRS:
		u.levelsJRS(v, sp)
	case estCIR:
		u.levelsCIR(v, sp)
	case estGMDC:
		u.levelsGMDC(v, sp)
	case estDist:
		u.levelsDist(v, sp)
	case estJRSMcF:
		u.estimatesJRSMcF(v, sp)
	case estSat:
		for i := range v.info {
			sp[i] = int32(b2i(conf.SatCounters{}.Estimate(int64(v.pc[i]), v.info[i])))
		}
	case estSatMcF:
		for i := range v.info {
			sp[i] = int32(b2i(u.satM.Estimate(int64(v.pc[i]), v.info[i])))
		}
	case estPattern:
		for i := range v.info {
			sp[i] = int32(b2i(u.pat.Confident(v.info[i].Hist)))
		}
	case estStatic:
		for i, pc := range v.pc {
			var hc bool
			if d := int(pc) - u.stLo; uint(d) < uint(len(u.stTab)) {
				hc = u.stTab[d]
			} else {
				hc = u.st.HighConfidence[int64(pc)]
			}
			sp[i] = int32(b2i(hc))
		}
	default:
		u.estimatesGeneric(v, sp)
	}
	u.fold(sp, v.flg)
}

// The stateful families' loops follow one shape: per fetch row, first
// train on the resolve rows before it, then write its split (from the
// group level, or the estimate); the window's trailing resolves come
// last. Each is written out so every call in it is concrete.

func (u *unit) levelsJRS(v *view, sp []int32) {
	j := u.jrs
	ri := 0
	for fi, n := range v.before {
		for ; n > 0; n-- {
			r := v.res[ri]
			ri++
			j.Resolve(int64(v.pcAll[r]), v.infoAll[r], v.flgAll[r]&fCorrect != 0)
		}
		if fi == len(sp) {
			break
		}
		sp[fi] = u.split(j.Counter(int64(v.pc[fi]), v.info[fi]))
	}
}

func (u *unit) levelsCIR(v *view, sp []int32) {
	o := u.cir
	ri := 0
	for fi, n := range v.before {
		for ; n > 0; n-- {
			r := v.res[ri]
			ri++
			o.Resolve(int64(v.pcAll[r]), v.infoAll[r], v.flgAll[r]&fCorrect != 0)
		}
		if fi == len(sp) {
			break
		}
		sp[fi] = u.split(o.Ones(int64(v.pc[fi]), v.info[fi]))
	}
}

func (u *unit) levelsGMDC(v *view, sp []int32) {
	g := u.gmdc
	ri := 0
	for fi, n := range v.before {
		for ; n > 0; n-- {
			r := v.res[ri]
			ri++
			g.Resolve(int64(v.pcAll[r]), v.infoAll[r], v.flgAll[r]&fCorrect != 0)
		}
		if fi == len(sp) {
			break
		}
		sp[fi] = u.split(g.Ones())
	}
}

// levelsDist reads the count before Estimate advances it: Distance
// counts every fetched branch, wrong-path fetches included, whatever
// the threshold, so the leader advances exactly once per fetch row.
func (u *unit) levelsDist(v *view, sp []int32) {
	d := u.dist
	ri := 0
	for fi, n := range v.before {
		for ; n > 0; n-- {
			r := v.res[ri]
			ri++
			d.Resolve(int64(v.pcAll[r]), v.infoAll[r], v.flgAll[r]&fCorrect != 0)
		}
		if fi == len(sp) {
			break
		}
		sp[fi] = u.split(d.Count())
		d.Estimate(int64(v.pc[fi]), v.info[fi])
	}
}

func (u *unit) estimatesJRSMcF(v *view, sp []int32) {
	j := u.jmcf
	ri := 0
	for fi, n := range v.before {
		for ; n > 0; n-- {
			r := v.res[ri]
			ri++
			j.Resolve(int64(v.pcAll[r]), v.infoAll[r], v.flgAll[r]&fCorrect != 0)
		}
		if fi == len(sp) {
			break
		}
		sp[fi] = int32(b2i(j.Estimate(int64(v.pc[fi]), v.info[fi])))
	}
}

func (u *unit) estimatesGeneric(v *view, sp []int32) {
	e := u.est
	ri := 0
	for fi, n := range v.before {
		for ; n > 0; n-- {
			r := v.res[ri]
			ri++
			e.Resolve(int64(v.pcAll[r]), v.infoAll[r], v.flgAll[r]&fCorrect != 0)
		}
		if fi == len(sp) {
			break
		}
		sp[fi] = int32(b2i(e.Estimate(int64(v.pc[fi]), v.info[fi])))
	}
}

// plan splits ests into dispatch units, in order of each unit's first
// estimator: JRS, CIR, gMDC-CIR and Distance estimators form one
// threshold group per configuration minus threshold (a group may have
// one member), every other estimator is solo.
func plan(t *Trace, ests []conf.Estimator) []unit {
	members := make([]member, len(ests))
	units := make([]unit, 0, len(ests))
	byKey := map[groupKey]int{} // config minus threshold → units index
	for i, est := range ests {
		f := newEstFast(est)
		key, level, grouped := f.sweepKey()
		ui, seen := byKey[key]
		if !grouped || !seen {
			ui = len(units)
			units = append(units, unit{estFast: f, est: est})
			if grouped {
				byKey[key] = ui
			}
		}
		members[i] = member{est: i, unit: ui, level: level}
	}
	slices.SortFunc(members, func(a, b member) int {
		return cmp.Or(cmp.Compare(a.unit, b.unit), cmp.Compare(a.level, b.level), cmp.Compare(a.est, b.est))
	})
	quad := make([]uint64, 4*(len(members)+len(units)))
	for ui, lo := 0, 0; ui < len(units); ui++ {
		u := &units[ui]
		hi := lo
		for hi < len(members) && members[hi].unit == ui {
			hi++
		}
		u.members = members[lo:hi:hi]
		n := 4 * (hi - lo + 1)
		u.quad, quad = quad[:n:n], quad[n:]
		if _, _, grouped := u.sweepKey(); grouped {
			u.splitAt = splitTable(u.members)
		}
		if u.kind == estStatic {
			u.stLo, u.stTab = staticTable(t, u.st.HighConfidence)
		}
		lo = hi
	}
	return units
}

// splitTable maps each level from 0 up to the highest member's (at most
// splitCap) to the number of members high-confident at it.
func splitTable(ms []member) []int32 {
	top := min(max(ms[len(ms)-1].level, 0), splitCap-1)
	tab := make([]int32, top+1)
	s := 0
	for lvl := range tab {
		for s < len(ms) && ms[s].level <= lvl {
			s++
		}
		tab[lvl] = int32(s)
	}
	return tab
}

// staticSpan bounds the dense static lookup; pcs beyond it (only in a
// trace spanning more than a million instruction indices) read the map.
const staticSpan = 1 << 20

// staticTable builds a dense copy of hc over the trace's pc range,
// built once per Replay call so the per-fetch lookup is an index, not a
// map access.
func staticTable(t *Trace, hc map[int64]bool) (lo int, tab []bool) {
	lo, hi := math.MaxInt32, math.MinInt32
	for ci := range t.chunks {
		c := &t.chunks[ci]
		if c.pc.dict != nil {
			for _, pc := range c.pc.dict {
				lo, hi = min(lo, int(pc)), max(hi, int(pc))
			}
			continue
		}
		for i := range c.flg {
			pc := int(c.pc.at(i))
			lo, hi = min(lo, pc), max(hi, pc)
		}
	}
	if lo > hi {
		return 0, nil
	}
	tab = make([]bool, min(hi-lo+1, staticSpan))
	for pc, high := range hc {
		if d := pc - int64(lo); high && d >= 0 && d < int64(len(tab)) {
			tab[d] = true
		}
	}
	return lo, tab
}

// Replay evaluates ests against the recorded stream and returns one
// pipeline.ConfStats per estimator — bit-identical to what a direct
// simulation with the same estimators attached would have produced in
// Stats.Confidence.
//
// Replay walks each chunk once, a window of tokens at a time. For each
// window it builds one transient view (see view); then every dispatch
// unit (see unit) runs its own typed loop over it, training per resolve
// row and estimating per fetch row in stream order — exactly the
// Estimate/Resolve sequence, with the same arguments, the pipeline
// drives. Statistics are folded per unit as split histograms (see
// unit.fold) and expanded into ConfStats once, at the end: quadrants
// from prefix sums of the split counts, MisestCommitted from each
// member's mis-estimation run lengths (see member.histogram).
//
// JRS, CIR (OnesCount), gMDC-CIR (GlobalMDCIndexed) and Distance
// estimators that differ only in threshold share one state (see unit),
// so only the first of them trains — the returned statistics are
// unaffected, but the other instances should be discarded after the
// call. Estimators must be freshly constructed (untrained), the same
// requirement direct simulation imposes, and must not share mutable
// state with each other or with estimators being replayed concurrently
// elsewhere.
//
// The per-event loops are allocation-free; the only allocations are the
// per-call result, plan and view scratch.
func Replay(t *Trace, ests []conf.Estimator) []pipeline.ConfStats {
	confs := make([]pipeline.ConfStats, len(ests))
	for i, est := range ests {
		confs[i].Name = est.Name()
	}
	units := plan(t, ests)
	var v view
	v.init(t)
	for ci := range t.chunks {
		c := &t.chunks[ci]
		v.rb.start(c)
		for k, fi := 0, 0; k < c.n; k += viewTokens {
			fi = v.load(c, k, min(k+viewTokens, c.n), fi)
			for i := range units {
				units[i].run(&v)
			}
			v.advance()
		}
	}
	for i := range units {
		units[i].finish(confs)
	}
	return confs
}
