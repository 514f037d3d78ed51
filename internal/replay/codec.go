// Binary encoding for Trace: the file format of simtrace -record and
// -summarize, and untrusted input for FuzzDecode. The in-memory cache
// stores *Trace values directly and never round-trips through it.
//
// Layout (all integers are encoding/binary varints unless noted):
//
//	magic    4 bytes "SPRT"
//	version  1 byte
//	nchunks  uvarint
//	per chunk:
//	  ntok   uvarint            // tokens in chunk: chunkTokens, except
//	                            // that the last chunk may hold 1..chunkTokens
//	  kinds  ⌈ntok/64⌉ uvarints // token-kind bitset words
//	  pc     one zigzag varint per fetch, delta from previous fetch pc
//	         (the running pc must stay within int32)
//	  hist   one uvarint per fetch, at most 32 bits
//	  ctr    one raw byte per fetch
//	  flg    one raw byte per fetch
//
// Decode validates structure, not just syntax: every chunk but the
// last must be full, as the recorder writes them, kind-bit counts must
// match payload counts, padding bits must be zero, reserved flag bits
// must be zero, pcs and histories must fit their 32-bit columns, and
// the running committed-minus-resolved balance must never go negative
// — so a successfully decoded trace is safe to hand to Replay, and
// Encode∘Decode is the identity on Decode's output. The header, the
// cursor, the count checks that bound allocation by the input, and the
// typed errors are the shared codec kernel's (internal/codec).

package replay

import (
	"encoding/binary"
	"math"
	"math/bits"

	"specctrl/internal/codec"
)

// traceMagic and traceVersion identify the serialized trace format.
const (
	traceMagic   = "SPRT"
	traceVersion = 1
)

// sprt is the trace format's header and typed errors.
var sprt = codec.NewFormat("replay", "trace", traceMagic, traceVersion)

// Typed decode errors, distinguishable by errors.Is. Each wraps the
// codec kernel's error of the same name.
var (
	// ErrBadMagic means the input does not start with a trace header.
	ErrBadMagic = sprt.ErrBadMagic
	// ErrVersion means the trace was written by an incompatible format
	// version.
	ErrVersion = sprt.ErrVersion
	// ErrCorrupt means the input has a trace header but its body is
	// truncated, overlong, or structurally inconsistent.
	ErrCorrupt = sprt.ErrCorrupt
)

// zigzag encodes a signed value for varint storage.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Encode serializes the trace.
func (t *Trace) Encode() []byte {
	// Size estimate: header + per-fetch worst case (10+10+1+1 bytes)
	// plus kind words; appends grow it if deltas compress worse than
	// the estimate (they never do — deltas only shrink pc varints).
	buf := make([]byte, 0, 16+t.tokens/8+t.fetches*22)
	buf = sprt.Header(buf)
	buf = binary.AppendUvarint(buf, uint64(len(t.chunks)))
	prevPC := int64(0)
	var r rebuild
	var pcs []int32
	var hists []uint32
	for ci := range t.chunks {
		c := &t.chunks[ci]
		buf = binary.AppendUvarint(buf, uint64(c.n))
		for _, w := range c.kinds {
			buf = binary.AppendUvarint(buf, w)
		}
		nf := len(c.flg)
		pcs, hists = resize(pcs, nf), resize(hists, nf)
		c.rows(&r, pcs, hists)
		for _, pc := range pcs {
			buf = binary.AppendUvarint(buf, zigzag(int64(pc)-prevPC))
			prevPC = int64(pc)
		}
		for _, h := range hists {
			buf = binary.AppendUvarint(buf, uint64(h))
		}
		for i := range c.flg {
			buf = append(buf, c.ctrAt(i))
		}
		for _, f := range c.flg {
			buf = append(buf, f&flagBits)
		}
	}
	return buf
}

// Minimum encoded sizes, for the kernel's count checks: a kind word is
// at least one byte, a full chunk at least its 3-byte token count and
// its chunkTokens/64 kind words, and a fetch at least a pc delta, a
// history, a counter and a flag byte.
const (
	minWordBytes      = 1
	minFullChunkBytes = 3 + chunkTokens/64*minWordBytes
	minFetchBytes     = 4
)

// Decode parses and validates an encoded trace. The returned trace is
// structurally sound: every invariant Replay relies on has been
// checked, so replaying it cannot index out of range or meet a resolve
// token with no committed fetch to pair it with. Nothing is allocated
// for a chunk, kind word or fetch that the remaining input could not
// hold.
func Decode(data []byte) (*Trace, error) {
	r, err := sprt.Open(data)
	if err != nil {
		return nil, err
	}
	n, err := r.Uvarint("chunk count")
	if err != nil {
		return nil, err
	}
	nchunks := 0
	if n > 0 {
		// Every chunk but the last is full, so each costs at least
		// minFullChunkBytes of input: a chunk header (176 bytes) is
		// paid for before it is allocated.
		full, err := r.Count(n-1, minFullChunkBytes, "full chunk count")
		if err != nil {
			return nil, err
		}
		nchunks = full + 1
	}

	t := &Trace{chunks: make([]chunk, 0, nchunks)}
	var b *builder // made once a chunk has been validated
	var kinds []uint64
	var pcs []int32
	var hists []uint32
	prevPC := int64(0)
	pending := 0 // committed fetches not yet resolved, across chunks
	for ci := range nchunks {
		ntok, err := r.Uvarint("token count")
		if err != nil {
			return nil, err
		}
		if ntok == 0 || ntok > chunkTokens {
			return nil, sprt.Corruptf("chunk %d: token count %d out of range (1..%d)", ci, ntok, chunkTokens)
		}
		if ntok != chunkTokens && ci != nchunks-1 {
			return nil, sprt.Corruptf("chunk %d: %d tokens in a chunk before the last, want %d", ci, ntok, chunkTokens)
		}
		words, err := r.Count((ntok+63)/64, minWordBytes, "kind word count")
		if err != nil {
			return nil, err
		}
		kinds = resize(kinds, words)
		fetches := 0
		for w := range kinds {
			if kinds[w], err = r.Uvarint("kind word"); err != nil {
				return nil, err
			}
			fetches += bits.OnesCount64(kinds[w])
		}
		// Canonical form: kind bits past the last token must be clear,
		// otherwise two byte streams could decode to the same trace.
		if tail := ntok & 63; tail != 0 {
			if kinds[words-1]>>tail != 0 {
				return nil, sprt.Corruptf("chunk %d: kind bits set past token count", ci)
			}
		}
		if _, err := r.Count(uint64(fetches), minFetchBytes, "fetch count"); err != nil {
			return nil, err
		}
		pcs, hists = resize(pcs, fetches), resize(hists, fetches)
		for i := range fetches {
			dv, err := r.Uvarint("pc delta")
			if err != nil {
				return nil, err
			}
			// prevPC stays within int32, so the sum cannot wrap back
			// into range.
			prevPC += unzigzag(dv)
			if prevPC != int64(int32(prevPC)) {
				return nil, sprt.Corruptf("chunk %d: pc %d of fetch %d out of int32 range", ci, prevPC, i)
			}
			pcs[i] = int32(prevPC)
		}
		for i := range fetches {
			h, err := r.Uvarint("history")
			if err != nil {
				return nil, err
			}
			if h > math.MaxUint32 {
				return nil, sprt.Corruptf("chunk %d: history %#x of fetch %d wider than 32 bits", ci, h, i)
			}
			hists[i] = uint32(h)
		}
		ctr, err := r.Bytes(fetches)
		if err != nil {
			return nil, err
		}
		flg, err := r.Bytes(fetches)
		if err != nil {
			return nil, err
		}
		for i := range fetches {
			if ctr[i]&^0x3f != 0 {
				return nil, sprt.Corruptf("chunk %d: reserved counter bits set in fetch %d", ci, i)
			}
			if flg[i]&^flagBits != 0 {
				return nil, sprt.Corruptf("chunk %d: reserved flag bits set in fetch %d", ci, i)
			}
		}
		// Replay pairs each resolve token with the oldest unresolved
		// committed fetch; a stream that resolves more than it
		// committed is not a recording.
		fi := 0
		for k := range int(ntok) {
			if kinds[k>>6]&(1<<(uint(k)&63)) != 0 {
				if flg[fi]&fCommitted != 0 {
					pending++
				}
				fi++
			} else {
				if pending == 0 {
					return nil, sprt.Corruptf("chunk %d: resolve token %d with no committed fetch pending", ci, k)
				}
				pending--
			}
		}
		if b == nil {
			b = new(builder)
			b.reset(nil)
		}
		t.chunks = append(t.chunks, b.build(int(ntok), kinds, pcs, hists, ctr, flg))
		t.fetches += fetches
		t.tokens += int(ntok)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return t, nil
}
