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
// Encode∘Decode is the identity on Decode's output.

package replay

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// traceMagic and traceVersion identify the serialized trace format.
const (
	traceMagic   = "SPRT"
	traceVersion = 1
)

// Typed decode errors, distinguishable by errors.Is.
var (
	// ErrBadMagic means the input does not start with a trace header.
	ErrBadMagic = errors.New("replay: not a trace (bad magic)")
	// ErrVersion means the trace was written by an incompatible format
	// version.
	ErrVersion = errors.New("replay: unsupported trace version")
	// ErrCorrupt means the input has a trace header but its body is
	// truncated, overlong, or structurally inconsistent.
	ErrCorrupt = errors.New("replay: corrupt trace")
)

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

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
	buf = append(buf, traceMagic...)
	buf = append(buf, traceVersion)
	buf = binary.AppendUvarint(buf, uint64(len(t.chunks)))
	prevPC := int64(0)
	for _, c := range t.chunks {
		buf = binary.AppendUvarint(buf, uint64(c.n))
		for w := 0; w < (c.n+63)/64; w++ {
			buf = binary.AppendUvarint(buf, c.kinds[w])
		}
		for _, pc := range c.pc {
			buf = binary.AppendUvarint(buf, zigzag(int64(pc)-prevPC))
			prevPC = int64(pc)
		}
		for _, h := range c.hist {
			buf = binary.AppendUvarint(buf, uint64(h))
		}
		buf = append(buf, c.ctr...)
		buf = append(buf, c.flg...)
	}
	return buf
}

// decoder is a cursor over the encoded byte stream.
type decoder struct {
	buf []byte
	off int
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, corruptf("truncated varint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *decoder) bytes(n int) ([]byte, error) {
	if len(d.buf)-d.off < n {
		return nil, corruptf("need %d bytes at offset %d, have %d", n, d.off, len(d.buf)-d.off)
	}
	// Full-slice expression: the chunk columns alias the input buffer,
	// and capping them keeps Trace.Bytes honest about retained memory.
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b, nil
}

// Decode parses and validates an encoded trace. The returned trace is
// structurally sound: every invariant Replay relies on has been
// checked, so replaying it cannot index out of range or meet a resolve
// token with no committed fetch to pair it with.
func Decode(data []byte) (*Trace, error) {
	if len(data) < len(traceMagic)+1 {
		return nil, ErrBadMagic
	}
	if string(data[:len(traceMagic)]) != traceMagic {
		return nil, ErrBadMagic
	}
	if v := data[len(traceMagic)]; v != traceVersion {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, v, traceVersion)
	}
	d := &decoder{buf: data, off: len(traceMagic) + 1}

	nchunks, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	// A chunk encodes to at least 2 bytes; reject counts the input
	// cannot possibly hold before allocating for them.
	if nchunks > uint64(len(data)) {
		return nil, corruptf("chunk count %d exceeds input size", nchunks)
	}

	t := &Trace{chunks: make([]*chunk, 0, nchunks)}
	prevPC := int64(0)
	pending := 0 // committed fetches not yet resolved, across chunks
	for ci := uint64(0); ci < nchunks; ci++ {
		ntok, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if ntok == 0 || ntok > chunkTokens {
			return nil, corruptf("chunk %d: token count %d out of range (1..%d)", ci, ntok, chunkTokens)
		}
		// Only the recorder appends to a chunk; a decoded one needs just
		// the words its tokens occupy, so tiny chunks stay tiny.
		words := (int(ntok) + 63) / 64
		c := &chunk{n: int(ntok), kinds: make([]uint64, words)}
		fetches := 0
		for w := 0; w < words; w++ {
			kw, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			c.kinds[w] = kw
			fetches += bits.OnesCount64(kw)
		}
		// Canonical form: kind bits past the last token must be clear,
		// otherwise two byte streams could decode to the same trace.
		if tail := c.n & 63; tail != 0 {
			if c.kinds[words-1]>>uint(tail) != 0 {
				return nil, corruptf("chunk %d: kind bits set past token count", ci)
			}
		}
		c.pc = make([]int32, fetches)
		c.hist = make([]uint32, fetches)
		for i := range c.pc {
			dv, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			// prevPC stays within int32, so the sum cannot wrap back
			// into range.
			prevPC += unzigzag(dv)
			if prevPC != int64(int32(prevPC)) {
				return nil, corruptf("chunk %d: pc %d of fetch %d out of int32 range", ci, prevPC, i)
			}
			c.pc[i] = int32(prevPC)
		}
		for i := range c.hist {
			h, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if h > math.MaxUint32 {
				return nil, corruptf("chunk %d: history %#x of fetch %d wider than 32 bits", ci, h, i)
			}
			c.hist[i] = uint32(h)
		}
		if c.ctr, err = d.bytes(fetches); err != nil {
			return nil, err
		}
		if c.flg, err = d.bytes(fetches); err != nil {
			return nil, err
		}
		for i := 0; i < fetches; i++ {
			if c.ctr[i]&^0x3f != 0 {
				return nil, corruptf("chunk %d: reserved counter bits set in fetch %d", ci, i)
			}
			if c.flg[i]&^uint8(fPred|fP1|fP2|fCorrect|fCommitted) != 0 {
				return nil, corruptf("chunk %d: reserved flag bits set in fetch %d", ci, i)
			}
		}
		// Replay pairs each resolve token with the oldest unresolved
		// committed fetch; a stream that resolves more than it
		// committed is not a recording.
		fi := 0
		for k := 0; k < c.n; k++ {
			if c.isFetch(k) {
				if c.flg[fi]&fCommitted != 0 {
					pending++
				}
				fi++
			} else {
				if pending == 0 {
					return nil, corruptf("chunk %d: resolve token %d with no committed fetch pending", ci, k)
				}
				pending--
			}
		}
		t.chunks = append(t.chunks, c)
		t.fetches += fetches
		t.tokens += c.n
	}
	if d.off != len(data) {
		return nil, corruptf("%d trailing bytes after last chunk", len(data)-d.off)
	}
	return t, nil
}
