package replay

import (
	"errors"
	"fmt"
	"math"

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
