package replay

import "math/bits"

// The compact form of a chunk keeps only what its token stream does not
// already determine:
//
//   - pcs: a suite chunk's fetches come from a few dozen static
//     branches, so a chunk with at most dictMax distinct pcs stores
//     them once, in a dictionary, and each fetch as a 1-byte index;
//   - histories: a predictor's history at each fetch follows from the
//     chunk's own tokens under the predictor's history rule (see
//     histColumn), so a chunk whose histories the rule reproduces
//     stores only the rule's state at the chunk's start;
//   - counters: C1 rides in the flag byte's spare bits (flg>>c1Shift),
//     so the counter column holds C2 and Meta, and exists only in a
//     chunk where one of them is nonzero.
//
// One routine, builder.build, makes this form from a chunk's full
// columns, for the recorder and for Decode alike. It rebuilds each
// candidate column with the very code readers use and compares it with
// the recorded one before it drops anything; a chunk that fails a check
// keeps that column explicit. So every reader sees exactly the recorded
// values.

// c1Shift is the position of C1 in a chunk's flag byte.
const c1Shift = 5

// flagBits are the flag-byte bits a trace file's flag column may set;
// the bits above them are reserved (on disk) or hold C1 (in memory).
const flagBits = fPred | fP1 | fP2 | fCorrect | fCommitted

// dictMax is the most distinct pcs a chunk's dictionary holds: its
// indices are single bytes.
const dictMax = 256

// halves is one explicit 32-bit column of a chunk, one entry per fetch
// token, stored as the entries' low 16 bits plus, only when some entry
// in the chunk needs them, their high 16 bits.
type halves struct {
	lo []uint16
	hi []uint16 // nil when every entry fits 16 bits
}

// halvesOf returns vals as an exactly sized halves column.
func halvesOf[T int32 | uint32](vals []T) halves {
	h := halves{lo: make([]uint16, len(vals))}
	var wide T
	for i, v := range vals {
		h.lo[i] = uint16(v)
		wide |= v >> 16
	}
	if wide != 0 {
		h.hi = make([]uint16, len(vals))
		for i, v := range vals {
			h.hi[i] = uint16(v >> 16)
		}
	}
	return h
}

// at returns entry i.
func (h *halves) at(i int) uint32 {
	v := uint32(h.lo[i])
	if h.hi != nil {
		v |= uint32(h.hi[i]) << 16
	}
	return v
}

// bytes is the column's retained size.
func (h *halves) bytes() int { return 2 * (cap(h.lo) + cap(h.hi)) }

// pcColumn is a chunk's pcs: a dictionary and one index per fetch, or,
// in a chunk with more than dictMax distinct pcs, the explicit column.
type pcColumn struct {
	dict []int32 // distinct pcs in first-fetch order; nil when explicit
	idx  []uint8 // per fetch, its pc's position in dict
	wide halves  // per fetch, the pc's two's-complement bits, when dict is nil
}

// at returns the pc of fetch row i.
func (p *pcColumn) at(i int) int32 {
	if p.dict != nil {
		return p.dict[p.idx[i]]
	}
	return int32(p.wide.at(i))
}

// fill writes the pcs of fetch rows fi onward into pc.
func (p *pcColumn) fill(fi int, pc []int32) {
	if p.dict != nil {
		for i, d := range p.idx[fi : fi+len(pc)] {
			pc[i] = p.dict[d]
		}
		return
	}
	for i := range pc {
		pc[i] = int32(p.wide.at(fi + i))
	}
}

// bytes is the column's retained size.
func (p *pcColumn) bytes() int { return 4*cap(p.dict) + cap(p.idx) + p.wide.bytes() }

// History rules (histColumn.rule).
const (
	// histExplicit: the chunk stores every history.
	histExplicit = iota
	// histGlobal is gshare's and McFarling's speculative global
	// history: a fetch sees the register and shifts in its predicted
	// direction; the resolve of a mispredicted committed branch
	// restores the branch's own history with its outcome shifted in.
	histGlobal
	// histLocal is SAg's non-speculative per-branch history: a fetch
	// sees its pc's register, and each committed branch's resolve
	// shifts its outcome into its pc's register.
	histLocal
)

// histColumn is a chunk's histories: explicit, or the state a history
// rule starts the chunk from. Every register is masked to mask, the
// widest history the trace has shown up to and including this chunk.
type histColumn struct {
	rule  uint8
	mask  uint32
	h0    uint32    // histGlobal: the register at the chunk's start
	local []uint32  // histLocal: each dictionary pc's register at the chunk's start
	carry []pendRow // committed fetches of earlier chunks still unresolved at the chunk's start, oldest first
	wide  halves    // histExplicit: one history per fetch
}

// pendRow is what a history rule needs of a committed fetch awaiting
// its resolve.
type pendRow struct {
	hist uint32
	d    int16 // its pc's position in the chunk's dictionary, or -1
	flg  uint8
}

// pendRowBytes is a pendRow's size in memory.
const pendRowBytes = 8

// bytes is the column's retained size.
func (h *histColumn) bytes() int {
	return h.wide.bytes() + 4*cap(h.local) + pendRowBytes*cap(h.carry)
}

// outcome is a resolved branch's direction: its prediction if the
// prediction was correct, the other direction if not.
func outcome(flg uint8) uint32 {
	if (flg&fPred != 0) == (flg&fCorrect != 0) {
		return 1
	}
	return 0
}

// rebuild regenerates one chunk's histories in token order, a window of
// tokens at a time; it carries the rule's registers and the committed
// fetches awaiting their resolve from one window to the next.
type rebuild struct {
	h     uint32
	local []uint32
	// q holds the committed fetches whose resolve changes a register —
	// under histGlobal the mispredicted ones, under histLocal all of
	// them — each with its position among the chunk's committed
	// fetches (the carried ones first); q[head:] awaits its resolve.
	q                []waiting
	head             int
	pushed, resolved int // committed fetches seen, and resolved, so far
}

// waiting is a committed fetch in rebuild's queue.
type waiting struct {
	seq int32
	v   uint32 // histGlobal: the register its resolve restores; histLocal: its outcome
	d   int16  // histLocal: its pc's dictionary position, or -1
}

// queueSlack is how many resolved entries rebuild's queue may hold
// before it reclaims them.
const queueSlack = 1024

// rebuildArrays back a rebuild's registers and queue: a chunk's
// dictionary bounds the registers, and the queue holds its resolved
// slack plus the fetches in flight, which a pipeline's width bounds in
// practice (it grows past them if need be).
type rebuildArrays struct {
	local [dictMax]uint32
	q     [2*queueSlack + 256]waiting
}

// init starts r's registers and queue out in arr.
func (r *rebuild) init(arr *rebuildArrays) { r.local, r.q = arr.local[:0], arr.q[:0] }

// start seeds the rule state from chunk c.
func (r *rebuild) start(c *chunk) {
	h := &c.hist
	r.h, r.head, r.pushed, r.resolved = h.h0, 0, len(h.carry), 0
	r.local = append(r.local[:0], h.local...)
	r.q = r.q[:0]
	for i, p := range h.carry {
		switch {
		case h.rule == histGlobal && p.flg&fCorrect == 0:
			r.q = append(r.q, waiting{seq: int32(i), v: (p.hist<<1 | outcome(p.flg)) & h.mask})
		case h.rule == histLocal:
			r.q = append(r.q, waiting{seq: int32(i), v: outcome(p.flg), d: p.d})
		}
	}
}

// hists writes the histories of the fetch rows among tokens [k, end)
// of chunk c, fetch rows fi onward, into hist, and advances the rule
// state, which start(c) seeded, past the window. With truth non-nil
// (the recorded histories of the same rows), it also compares each
// rebuilt history with the recorded one and continues from the
// recorded one; it reports whether every history matched. A resolve
// with no committed fetch pending is skipped, as Replay skips it.
func (r *rebuild) hists(c *chunk, k, end, fi int, hist, truth []uint32) bool {
	ok := true
	switch c.hist.rule {
	case histExplicit:
		for i := range hist {
			hist[i] = c.hist.wide.at(fi + i)
		}
	case histGlobal:
		ok = r.globalRule(c, k, end, fi, hist, truth)
	default:
		ok = r.localRule(c, k, end, fi, hist, truth)
	}
	// Reclaim the resolved prefix once it is most of the queue.
	if r.head >= queueSlack && 2*r.head >= len(r.q) {
		r.q = r.q[:copy(r.q, r.q[r.head:])]
		r.head = 0
	}
	return ok
}

// all rebuilds every history of chunk c into hist, seeding the state
// first and walking the chunk in Replay's windows; truth is as for
// hists.
func (r *rebuild) all(c *chunk, hist, truth []uint32) bool {
	r.start(c)
	ok := true
	for k, fi := 0, 0; k < c.n; k += viewTokens {
		end := min(k+viewTokens, c.n)
		nf := c.fetches(k, end)
		var t []uint32
		if truth != nil {
			t = truth[fi : fi+nf]
		}
		ok = r.hists(c, k, end, fi, hist[fi:fi+nf], t) && ok
		fi += nf
	}
	return ok
}

// globalRule is hists under histGlobal. The walk visits the window's
// fetch tokens, lowest set kind bit first; the gap to the previous
// fetch token is the resolves between.
func (r *rebuild) globalRule(c *chunk, k, end, fi int, hist, truth []uint32) bool {
	ok, h, mask := true, r.h, c.hist.mask
	q, head, pushed, resolved := r.q, r.head, r.pushed, r.resolved
	flgs := c.flg[fi : fi+len(hist)]
	row, prev := 0, k-1
	for i := k; i < end; {
		n := min(64-i&63, end-i)
		w := c.kinds[i>>6] >> (uint(i) & 63) & (1<<n - 1)
		for w != 0 {
			pos := i + bits.TrailingZeros64(w)
			w &= w - 1
			// Branch-free while nothing restores: gaps are irregular.
			resolved = min(resolved+pos-prev-1, pushed)
			for head < len(q) && int(q[head].seq) < resolved {
				h = q[head].v
				head++
			}
			prev = pos
			v := h
			if truth != nil && v != truth[row] {
				ok, v = false, truth[row]
			}
			hist[row] = v
			f := flgs[row]
			h = (v<<1 | uint32(f&fPred)) & mask
			if f&(fCommitted|fCorrect) == fCommitted {
				q = append(q, waiting{seq: int32(pushed), v: (v<<1 | outcome(f)) & mask})
			}
			pushed += int(f>>committedBit) & 1
			row++
		}
		i += n
	}
	resolved = min(resolved+end-prev-1, pushed)
	for head < len(q) && int(q[head].seq) < resolved {
		h = q[head].v
		head++
	}
	r.h, r.q, r.head, r.pushed, r.resolved = h, q, head, pushed, resolved
	return ok
}

// localRule is hists under histLocal; it walks the window as
// globalRule does.
func (r *rebuild) localRule(c *chunk, k, end, fi int, hist, truth []uint32) bool {
	ok, st, mask := true, r.local, c.hist.mask
	q, head, pushed, resolved := r.q, r.head, r.pushed, r.resolved
	flgs, idx := c.flg[fi:fi+len(hist)], c.pc.idx[fi:fi+len(hist)]
	settle := func(g int) {
		resolved = min(resolved+g, pushed)
		for ; head < len(q) && int(q[head].seq) < resolved; head++ {
			if w := q[head]; w.d >= 0 {
				st[w.d] = (st[w.d]<<1 | w.v) & mask
			}
		}
		// Every committed fetch queues here: reclaim within the window.
		if head >= queueSlack && 2*head >= len(q) {
			q, head = q[:copy(q, q[head:])], 0
		}
	}
	row, prev := 0, k-1
	for i := k; i < end; {
		n := min(64-i&63, end-i)
		w := c.kinds[i>>6] >> (uint(i) & 63) & (1<<n - 1)
		for w != 0 {
			pos := i + bits.TrailingZeros64(w)
			w &= w - 1
			settle(pos - prev - 1)
			prev = pos
			d := idx[row]
			v := st[d]
			if truth != nil && v != truth[row] {
				ok, v = false, truth[row]
				st[d] = v
			}
			hist[row] = v
			if f := flgs[row]; f&fCommitted != 0 {
				q = append(q, waiting{seq: int32(pushed), v: outcome(f), d: int16(d)})
				pushed++
			}
			row++
		}
		i += n
	}
	settle(end - prev - 1)
	r.q, r.head, r.pushed, r.resolved = q, head, pushed, resolved
	return ok
}

// pending is a committed fetch awaiting its resolve, as the builder
// carries it from one chunk to the next.
type pending struct {
	pc   int32
	hist uint32
	flg  uint8
}

// builder makes chunks in compact form from their recorded columns, in
// trace order. Between chunks it carries what the next chunk's rule
// state derives from: the widest history so far, the global register,
// each pc's local register, and the committed fetches still pending.
// Registers are carried as recorded, so a chunk whose histories break a
// rule leaves the next chunk's check unharmed.
type builder struct {
	width      uint
	h          uint32
	local      map[int32]uint32
	pend       []pending
	localFirst bool // the local rule held for the last chunk

	// Scratch reused from chunk to chunk.
	r     rebuild
	dict  []int32
	index pcIndex
	idx   []uint8
	hist  []uint32
	carry []pendRow
	seed  []uint32
}

// builderArrays back a builder's scratch at the sizes a chunk bounds
// (the dictionary, its indices, the rebuilt histories) or that a
// pipeline's branches in flight bound in practice (the pending
// fetches), so that scratch costs no allocation per slice and growth.
type builderArrays struct {
	dict  [dictMax]int32
	seed  [dictMax]uint32
	pend  [256]pending
	carry [256]pendRow
	idx   [chunkTokens]uint8
	hist  [chunkTokens]uint32
	r     rebuildArrays
}

// reset readies b for a new trace, keeping its scratch. On its first
// reset, b's scratch starts out in arr, if arr is not nil.
func (b *builder) reset(arr *builderArrays) {
	if arr != nil && b.dict == nil {
		b.dict, b.seed, b.pend, b.carry = arr.dict[:0], arr.seed[:0], arr.pend[:0], arr.carry[:0]
		b.idx, b.hist = arr.idx[:0], arr.hist[:0]
		b.r.init(&arr.r)
	}
	b.width, b.h, b.localFirst = 0, 0, false
	clear(b.local)
	b.pend = b.pend[:0]
}

// build returns a chunk of n tokens, with token-kind bits kinds and
// one pc, history, packed counter (C1 | C2<<2 | Meta<<4) and flag byte
// per fetch, in compact form. It keeps none of its arguments.
func (b *builder) build(n int, kinds []uint64, pcs []int32, hists []uint32, ctrs, flgs []uint8) chunk {
	c := chunk{n: n, kinds: exact(kinds), flg: make([]uint8, len(flgs))}
	var hi uint8
	for i, f := range flgs {
		c.flg[i] = f | ctrs[i]&3<<c1Shift
		hi |= ctrs[i] >> 2
	}
	if hi != 0 {
		c.ctr = make([]uint8, len(ctrs))
		for i, v := range ctrs {
			c.ctr[i] = v &^ 3
		}
	}
	c.pc = b.pcColumn(pcs)
	b.histColumn(&c, hists)
	b.advance(&c, pcs, hists)
	return c
}

// pcColumn returns pcs as a dictionary column, or as an explicit one
// when they hold more than dictMax distinct values.
func (b *builder) pcColumn(pcs []int32) pcColumn {
	clear(b.index.pos[:])
	b.dict, b.idx = b.dict[:0], resize(b.idx, len(pcs))[:0]
	for _, pc := range pcs {
		i, found := b.index.find(pc)
		if !found {
			if len(b.dict) == dictMax {
				clear(b.index.pos[:])
				b.dict = b.dict[:0]
				return pcColumn{wide: halvesOf(pcs)}
			}
			b.dict = append(b.dict, pc)
			b.index.pc[i], b.index.pos[i] = pc, int16(len(b.dict))
		}
		b.idx = append(b.idx, uint8(b.index.pos[i]-1))
	}
	return pcColumn{dict: exact(b.dict), idx: exact(b.idx)}
}

// mask is the register mask of the widest history seen so far.
func (b *builder) mask() uint32 { return 1<<b.width - 1 }

// dictPos returns pc's position in the chunk's dictionary, or -1.
func (b *builder) dictPos(pc int32) int16 {
	i, _ := b.index.find(pc)
	return b.index.pos[i] - 1
}

// pcIndexBits sizes pcIndex: 1<<10 slots, four per dictionary entry.
const pcIndexBits = 10

// pcIndex maps the pcs of a chunk's dictionary to their positions: an
// open-addressed table with linear probing, at most a quarter full.
type pcIndex struct {
	pc  [1 << pcIndexBits]int32
	pos [1 << pcIndexBits]int16 // position in the dictionary + 1; 0 marks an empty slot
}

// find returns the slot that holds pc, or the empty slot where it
// belongs.
func (x *pcIndex) find(pc int32) (slot int, found bool) {
	for i := int(uint32(pc) * 0x9e3779b1 >> (32 - pcIndexBits)); ; i = (i + 1) & (1<<pcIndexBits - 1) {
		if x.pos[i] == 0 {
			return i, false
		}
		if x.pc[i] == pc {
			return i, true
		}
	}
}

// histColumn sets c's history column: the state of a rule that
// reproduces hists, else hists itself. A rule whose start state would
// take more memory than the explicit column is not taken. A rule's
// check continues from the recorded histories, so its registers carry
// to the next chunk intact even when it fails.
func (b *builder) histColumn(c *chunk, hists []uint32) {
	var or uint32
	for _, h := range hists {
		or |= h
	}
	b.width = max(b.width, uint(bits.Len32(or)))
	mask := b.mask()
	b.carry = b.carry[:0]
	for _, p := range b.pend {
		b.carry = append(b.carry, pendRow{hist: p.hist, d: b.dictPos(p.pc), flg: p.flg})
	}
	b.hist = resize(b.hist, len(hists))
	scratch := b.hist
	check := func(col histColumn) bool {
		c.hist = col
		return b.r.all(c, scratch, hists)
	}

	h0 := b.h & mask
	checkGlobal := func() bool {
		ok := check(histColumn{rule: histGlobal, mask: mask, h0: h0, carry: b.carry})
		b.h = b.r.h
		return ok
	}
	checkLocal := func() bool {
		if c.pc.dict == nil {
			return false
		}
		if b.local == nil {
			b.local = make(map[int32]uint32, dictMax)
		}
		b.seed = b.seed[:0]
		for _, pc := range c.pc.dict {
			b.seed = append(b.seed, b.local[pc]&mask)
		}
		ok := check(histColumn{rule: histLocal, mask: mask, local: b.seed, carry: b.carry})
		for d, pc := range c.pc.dict {
			b.local[pc] = b.r.local[d]
		}
		return ok
	}
	// The rule that held for the last chunk is checked first, and the
	// other only if it fails; a rule skipped for a chunk may fail the
	// next chunk's check, never its exactness.
	var global, local bool
	if b.localFirst {
		if local = checkLocal(); !local {
			global = checkGlobal()
		}
	} else if global = checkGlobal(); !global {
		local = checkLocal()
	}
	b.localFirst = local && !global

	explicit := 2 * len(hists)
	if or>>16 != 0 {
		explicit *= 2
	}
	switch carried := pendRowBytes * len(b.carry); {
	case global && carried < explicit:
		c.hist = histColumn{rule: histGlobal, mask: mask, h0: h0, carry: exact(b.carry)}
	case local && carried+4*len(b.seed) < explicit:
		c.hist = histColumn{rule: histLocal, mask: mask, local: exact(b.seed), carry: exact(b.carry)}
	default:
		c.hist = histColumn{wide: halvesOf(hists)}
	}
}

// advance moves the builder's pending fetches past chunk c, whose
// recorded pcs and histories are pcs and hists. A carried fetch whose
// pc c's dictionary lacks is resolved in no rule walk of c, so its
// outcome is shifted into its pc's local register here: no fetch of c
// reads that register in between.
func (b *builder) advance(c *chunk, pcs []int32, hists []uint32) {
	carried, head, fi := len(b.pend), 0, 0 // carried: carried fetches still pending
	for k := range c.n {
		if c.isFetch(k) {
			if f := c.flg[fi]; f&fCommitted != 0 {
				b.pend = append(b.pend, pending{pc: pcs[fi], hist: hists[fi], flg: f & flagBits})
			}
			fi++
			continue
		}
		if head == len(b.pend) {
			continue
		}
		if p := b.pend[head]; carried > 0 && b.local != nil && c.pc.dict != nil && b.dictPos(p.pc) < 0 {
			b.local[p.pc] = (b.local[p.pc]<<1 | outcome(p.flg)) & b.mask()
		}
		head++
		carried--
		// Reclaim the resolved prefix once it is most of the queue.
		if head > 64 && 2*head >= len(b.pend) {
			b.pend = b.pend[:copy(b.pend, b.pend[head:])]
			head = 0
		}
	}
	b.pend = b.pend[:copy(b.pend, b.pend[head:])]
}
