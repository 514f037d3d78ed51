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
//	  ntok   uvarint            // tokens in chunk, 1..chunkTokens
//	  kinds  ⌈ntok/64⌉ uvarints // token-kind bitset words
//	  pc     one zigzag varint per fetch, delta from previous fetch pc
//	         (the running pc must stay within int32)
//	  hist   one uvarint per fetch, at most 32 bits
//	  ctr    one raw byte per fetch
//	  flg    one raw byte per fetch
//
// Decode validates structure, not just syntax: kind-bit counts must
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
	"slices"

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
	for ci := range t.chunks {
		c := &t.chunks[ci]
		buf = binary.AppendUvarint(buf, uint64(c.n))
		for _, w := range c.kinds {
			buf = binary.AppendUvarint(buf, w)
		}
		for i := range c.flg {
			pc := int64(c.pcAt(i))
			buf = binary.AppendUvarint(buf, zigzag(pc-prevPC))
			prevPC = pc
		}
		for i := range c.flg {
			buf = binary.AppendUvarint(buf, uint64(c.hist.at(i)))
		}
		buf = append(buf, c.ctr...)
		buf = append(buf, c.flg...)
	}
	return buf
}

// Minimum encoded sizes, for the kernel's count checks: a chunk is at
// least its token count and one kind word, a kind word at least one
// byte, and a fetch at least a pc delta, a history, a counter and a
// flag byte.
const (
	minChunkBytes = 2
	minWordBytes  = 1
	minFetchBytes = 4
	// inputBytesPerChunk keeps a preallocated chunk slice under 6
	// bytes per input byte, whatever the declared count.
	inputBytesPerChunk = 32
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
	nchunks, err := r.Count(n, minChunkBytes, "chunk count")
	if err != nil {
		return nil, err
	}

	// A chunk header is 176 bytes, far more than the 2 input bytes that
	// can declare it, so the chunk slice is preallocated only as far as
	// inputBytesPerChunk input bytes pay for each header; a trace of
	// smaller chunks (the recorder writes none) grows it as it reads.
	t := &Trace{chunks: make([]chunk, 0, min(nchunks, len(data)/inputBytesPerChunk))}
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
		words, err := r.Count((ntok+63)/64, minWordBytes, "kind word count")
		if err != nil {
			return nil, err
		}
		c := chunk{n: int(ntok), kinds: make([]uint64, words)}
		fetches := 0
		for w := range c.kinds {
			if c.kinds[w], err = r.Uvarint("kind word"); err != nil {
				return nil, err
			}
			fetches += bits.OnesCount64(c.kinds[w])
		}
		// Canonical form: kind bits past the last token must be clear,
		// otherwise two byte streams could decode to the same trace.
		if tail := c.n & 63; tail != 0 {
			if c.kinds[words-1]>>uint(tail) != 0 {
				return nil, sprt.Corruptf("chunk %d: kind bits set past token count", ci)
			}
		}
		if _, err := r.Count(uint64(fetches), minFetchBytes, "fetch count"); err != nil {
			return nil, err
		}
		// A column's high halves are allocated at its first entry that
		// needs them, so a chunk decodes to the columns it was recorded
		// with.
		c.pc.lo = make([]uint16, fetches)
		c.hist.lo = make([]uint16, fetches)
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
			c.pc.set(i, uint32(prevPC))
		}
		for i := range fetches {
			h, err := r.Uvarint("history")
			if err != nil {
				return nil, err
			}
			if h > math.MaxUint32 {
				return nil, sprt.Corruptf("chunk %d: history %#x of fetch %d wider than 32 bits", ci, h, i)
			}
			c.hist.set(i, uint32(h))
		}
		if c.ctr, err = r.Bytes(fetches); err != nil {
			return nil, err
		}
		if c.flg, err = r.Bytes(fetches); err != nil {
			return nil, err
		}
		for i := range fetches {
			if c.ctr[i]&^0x3f != 0 {
				return nil, sprt.Corruptf("chunk %d: reserved counter bits set in fetch %d", ci, i)
			}
			if c.flg[i]&^uint8(fPred|fP1|fP2|fCorrect|fCommitted) != 0 {
				return nil, sprt.Corruptf("chunk %d: reserved flag bits set in fetch %d", ci, i)
			}
		}
		// Replay pairs each resolve token with the oldest unresolved
		// committed fetch; a stream that resolves more than it
		// committed is not a recording.
		fi := 0
		for k := range c.n {
			if c.isFetch(k) {
				if c.flg[fi]&fCommitted != 0 {
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
		if len(t.chunks) == cap(t.chunks) {
			// Double, up to the declared count.
			t.chunks = slices.Grow(t.chunks, min(len(t.chunks)+1, nchunks-len(t.chunks)))
		}
		t.chunks = append(t.chunks, c)
		t.fetches += fetches
		t.tokens += c.n
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return t, nil
}
