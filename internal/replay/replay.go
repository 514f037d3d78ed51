package replay

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
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

// committedBit is fCommitted's bit position.
const committedBit = 4

// chunk is one run of at most chunkTokens tokens. kinds holds one bit
// per token (set = fetch event, clear = resolve event), ⌈n/64⌉ words;
// the columns hold one entry per *fetch* token, in token order, in the
// compact form builder.build makes (see compact.go). pcs are
// instruction indices and histories are masked to at most 30 bits; the
// recorder rejects a value that does not fit 32 bits rather than
// truncating it. Every column is exactly sized: its capacity is its
// length.
type chunk struct {
	n     int      // tokens
	kinds []uint64 // token-kind bits
	pc    pcColumn
	hist  histColumn
	ctr   []uint8 // C2<<2 | Meta<<4; nil when every C2 and Meta is zero
	flg   []uint8 // fPred | fP1 | fP2 | fCorrect | fCommitted | C1<<c1Shift
}

// isFetch reports whether token i is a fetch event.
func (c *chunk) isFetch(i int) bool { return c.kinds[i>>6]&(1<<(uint(i)&63)) != 0 }

// ctrAt returns the packed counters (C1 | C2<<2 | Meta<<4) of fetch
// row i.
func (c *chunk) ctrAt(i int) uint8 {
	v := c.flg[i] >> c1Shift
	if c.ctr != nil {
		v |= c.ctr[i]
	}
	return v
}

// fetches counts the fetch tokens among tokens [k, end).
func (c *chunk) fetches(k, end int) int {
	nf := 0
	for i := k; i < end; {
		n := min(64-i&63, end-i)
		nf += bits.OnesCount64(c.kinds[i>>6] >> (uint(i) & 63) & (1<<n - 1))
		i += n
	}
	return nf
}

// rows rebuilds the pcs and histories of every fetch row of c into
// pc and hist, which hold one entry per fetch.
func (c *chunk) rows(r *rebuild, pc []int32, hist []uint32) {
	c.pc.fill(0, pc)
	r.all(c, hist, nil)
}

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
	var r rebuild
	var pc []int32
	var hist []uint32
	for ci := range t.chunks {
		c := &t.chunks[ci]
		pc, hist = resize(pc, len(c.flg)), resize(hist, len(c.flg))
		c.rows(&r, pc, hist)
		for i, flg := range c.flg {
			if flg&fCommitted != 0 {
				setInfo(&info, hist[i], c.ctrAt(i), flg)
				fn(int64(pc[i]), info, flg&fCorrect != 0)
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
			pc := int64(c.pc.at(i))
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
// each full chunk is closed into exactly sized columns in compact form
// (see builder), so recording allocates per chunk, not per event. A pc
// outside int32 or a history wider than 32 bits fails the recording
// (see chunk) instead of being stored truncated.
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
	f := o.nf
	o.kinds[o.n>>6] |= 1 << (uint(o.n) & 63)
	o.pc[f], o.hist[f] = int32(r.pendPC), uint32(r.pendInfo.Hist)
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
		r.cur.b.reset(&r.cur.arr)
	}
	return r.cur
}

// scratch recycles open chunks across recordings: one is as large as a
// full chunk's columns, which a short recording would otherwise
// allocate for a few events, and carries the builder that closes them
// with its scratch. A pooled scratch is always empty (reset); its
// builder is reset when a recording takes it.
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
// the recorder writes each event into, as full columns, and the
// builder that closes each chunk of the recording.
type openChunk struct {
	n, nf    int // tokens, fetch tokens
	kinds    [chunkTokens / 64]uint64
	pc       [chunkTokens]int32
	hist     [chunkTokens]uint32
	ctr, flg [chunkTokens]uint8
	b        builder
	arr      builderArrays
}

// close returns the open chunk in compact form. It allocates only the
// chunk's columns and leaves the scratch as it is.
func (o *openChunk) close() chunk {
	nf := o.nf
	return o.b.build(o.n, o.kinds[:(o.n+63)/64], o.pc[:nf], o.hist[:nf], o.ctr[:nf], o.flg[:nf])
}

// reset empties the scratch for the next chunk.
func (o *openChunk) reset() {
	clear(o.kinds[:(o.n+63)/64])
	o.n, o.nf = 0, 0
}

// resize returns s resized to n entries, reusing its array when it is
// large enough; the entries are not cleared.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

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
