package replay

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"specctrl/internal/bpred"
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

// halves is one 32-bit column of a chunk, one entry per fetch token,
// stored as the entries' low 16 bits plus, only when some entry in the
// chunk needs them, their high 16 bits. Suite pcs and predictor
// histories at the default scale fit 16 bits, so their chunks carry no
// high half.
type halves struct {
	lo []uint16
	hi []uint16 // nil when every entry fits 16 bits
}

// at returns entry i.
func (h *halves) at(i int) uint32 {
	v := uint32(h.lo[i])
	if h.hi != nil {
		v |= uint32(h.hi[i]) << 16
	}
	return v
}

// set stores v as entry i of a column whose lo is allocated, adding
// the high halves when v is the first entry to need them.
func (h *halves) set(i int, v uint32) {
	h.lo[i] = uint16(v)
	if v>>16 != 0 && h.hi == nil {
		h.hi = make([]uint16, len(h.lo))
	}
	if h.hi != nil {
		h.hi[i] = uint16(v >> 16)
	}
}

// bytes is the column's retained size.
func (h *halves) bytes() int { return 2 * (cap(h.lo) + cap(h.hi)) }

// chunk is one run of at most chunkTokens tokens. kinds holds one bit
// per token (set = fetch event, clear = resolve event), ⌈n/64⌉ words;
// the columns hold one entry per *fetch* token, in token order. pc and
// hist are 32-bit columns (PCs are instruction indices and predictor
// histories are masked to at most 30 bits; the recorder rejects a value
// that does not fit, rather than truncating it) stored as halves, and
// every column is exactly sized: its capacity is its length.
type chunk struct {
	n     int      // tokens
	kinds []uint64 // token-kind bits
	pc    halves   // int32 pcs, as their two's-complement bits
	hist  halves
	ctr   []uint8 // packed counters: C1 | C2<<2 | Meta<<4
	flg   []uint8 // fPred | fP1 | fP2 | fCorrect | fCommitted
}

// isFetch reports whether token i is a fetch event.
func (c *chunk) isFetch(i int) bool { return c.kinds[i>>6]&(1<<(uint(i)&63)) != 0 }

// pcAt returns the pc of fetch row i.
func (c *chunk) pcAt(i int) int32 { return int32(c.pc.at(i)) }

// bytes is the chunk's retained column memory.
func (c *chunk) bytes() int {
	return cap(c.kinds)*8 + c.pc.bytes() + c.hist.bytes() + cap(c.ctr) + cap(c.flg)
}

// Trace is one simulation's recorded branch event stream. A Trace is
// immutable once obtained from Recorder.Trace or Decode and is safe
// for concurrent Replay calls.
type Trace struct {
	chunks  []chunk
	fetches int // total fetch tokens
	tokens  int // total tokens (fetches + resolves)
}

// Events returns the total token count (fetch + resolve events).
func (t *Trace) Events() int { return t.tokens }

// Fetches returns the number of fetch events.
func (t *Trace) Fetches() int { return t.fetches }

// Bytes is the trace's retained column memory; the trace cache's LRU
// budget accounts entries with it.
func (t *Trace) Bytes() int {
	n := 0
	for i := range t.chunks {
		n += t.chunks[i].bytes()
	}
	return n
}

// Committed calls fn for every committed fetch event in fetch order,
// which is program order: the branch pc, the fetch-time bpred.Info the
// estimators saw (its Pred is the predicted direction), and whether the
// prediction matched the outcome.
func (t *Trace) Committed(fn func(pc int64, info bpred.Info, correct bool)) {
	var info bpred.Info
	for ci := range t.chunks {
		c := &t.chunks[ci]
		for i, flg := range c.flg {
			if flg&fCommitted != 0 {
				setInfo(&info, c.hist.at(i), c.ctr[i], flg)
				fn(int64(c.pcAt(i)), info, flg&fCorrect != 0)
			}
		}
	}
}

// Sites folds the trace's committed fetch events into per-branch-site
// prediction accuracy: exactly the profile a run of the recorded
// configuration accumulates under pipeline.Config.CollectSiteStats,
// which counts the same committed fetches with the same correctness.
//
// It walks the chunks itself rather than through Committed, which would
// rebuild a bpred.Info per fetch that the profile never reads.
func (t *Trace) Sites() map[int64]*pipeline.SiteStats {
	sites := make(map[int64]*pipeline.SiteStats)
	for ci := range t.chunks {
		c := &t.chunks[ci]
		for i, flg := range c.flg {
			if flg&fCommitted == 0 {
				continue
			}
			pc := int64(c.pcAt(i))
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
// a conf.Estimator (in Config.Estimators, alone or after others: the
// stream does not depend on which estimators are attached) and as (or
// behind obs.MultiSink in) the run's obs.Tracer — so the simulator
// needs no changes:
//
//   - Estimate stashes the fetch-time (pc, Info) pair;
//   - Branch (called by the simulator immediately after the estimate
//     fan-out for the same branch) completes the fetch event with the
//     prediction's correctness and the committed/wrong-path flag;
//   - Resolve appends a payload-free resolve token.
//
// Events are written into fixed-capacity scratch (see openChunk), and
// each full chunk is closed into exactly sized columns, so recording
// allocates per chunk, not per event. A pc outside int32 or a history
// wider than 32 bits fails the recording (see chunk) instead of being
// stored truncated.
//
// Estimate always returns high confidence, so the base Stats of a
// recording run with the recorder alone (CommittedQ/AllQ and every
// estimator-independent field) are identical to a run with no
// estimators attached.
//
// A Recorder is single-run, single-goroutine state, like the simulator
// that drives it.
type Recorder struct {
	t   Trace
	cur *openChunk // nil before the first event and after Trace

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
	o := r.open()
	pc, hist := uint32(r.pendPC), uint32(r.pendInfo.Hist)
	f := o.nf
	o.kinds[o.n>>6] |= 1 << (uint(o.n) & 63)
	o.pcLo[f], o.pcHi[f] = uint16(pc), uint16(pc>>16)
	o.histLo[f], o.histHi[f] = uint16(hist), uint16(hist>>16)
	o.pcWide |= uint16(pc >> 16)
	o.histWide |= uint16(hist >> 16)
	o.ctr[f] = packInfo(r.pendInfo)
	o.flg[f] = flg
	o.nf++
	r.t.fetches++
	r.token()
}

// Resolve implements conf.Estimator: committed branches resolve in
// fetch order with fetch-time arguments, so the token needs no payload.
func (r *Recorder) Resolve(pc int64, info bpred.Info, correct bool) {
	r.open() // kind bit stays clear: resolve token
	r.token()
}

// Close implements obs.Tracer (the recorder has nothing to flush).
func (r *Recorder) Close() error { return nil }

// open returns the chunk being recorded, taking a scratch on the first
// event.
func (r *Recorder) open() *openChunk {
	if r.cur == nil {
		r.cur = scratch.Get().(*openChunk)
	}
	return r.cur
}

// scratch recycles open chunks across recordings: one is as large as a
// full chunk's columns, which a short recording would otherwise
// allocate for a few events. A pooled scratch is always empty (reset).
var scratch = sync.Pool{New: func() any { return new(openChunk) }}

// token counts the token just written, closing the chunk once it is
// full.
func (r *Recorder) token() {
	r.t.tokens++
	if r.cur.n++; r.cur.n == chunkTokens {
		r.flush()
	}
}

// flush appends the open chunk to the trace and empties the scratch.
func (r *Recorder) flush() {
	r.t.chunks = append(r.t.chunks, r.cur.close())
	r.cur.reset()
}

// openChunk is the chunk under construction: fixed-capacity scratch
// the recorder writes each event into. pc and history are written as
// both halves; pcWide and histWide OR together the high halves written,
// and close keeps a column's high halves only when its OR is nonzero.
type openChunk struct {
	n, nf            int // tokens, fetch tokens
	pcWide, histWide uint16
	kinds            [chunkTokens / 64]uint64
	pcLo, pcHi       [chunkTokens]uint16
	histLo, histHi   [chunkTokens]uint16
	ctr, flg         [chunkTokens]uint8
}

// close returns the open chunk as an exactly sized chunk. It allocates
// only the columns and leaves the scratch as it is.
func (o *openChunk) close() chunk {
	nf := o.nf
	c := chunk{
		n:     o.n,
		kinds: exact(o.kinds[:(o.n+63)/64]),
		pc:    halves{lo: exact(o.pcLo[:nf])},
		hist:  halves{lo: exact(o.histLo[:nf])},
		ctr:   exact(o.ctr[:nf]),
		flg:   exact(o.flg[:nf]),
	}
	if o.pcWide != 0 {
		c.pc.hi = exact(o.pcHi[:nf])
	}
	if o.histWide != 0 {
		c.hist.hi = exact(o.histHi[:nf])
	}
	return c
}

// reset empties the scratch for the next chunk.
func (o *openChunk) reset() {
	clear(o.kinds[:(o.n+63)/64])
	o.n, o.nf, o.pcWide, o.histWide = 0, 0, 0, 0
}

// exact returns a copy of s whose capacity is its length.
func exact[T any](s []T) []T {
	c := make([]T, len(s))
	copy(c, s)
	return c
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
	if r.cur != nil {
		if r.cur.n > 0 {
			r.flush()
		}
		scratch.Put(r.cur)
		r.cur = nil
	}
	return &r.t, nil
}
