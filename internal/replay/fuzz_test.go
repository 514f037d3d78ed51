package replay

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"specctrl/internal/conf"
)

// FuzzDecode hardens the trace decoder against untrusted input — any
// file handed to simtrace -summarize: Decode must never panic, must
// fail with exactly one of the typed errors, and on success must return
// a trace that (a) retains at most a small constant multiple of the
// input's size, (b) replays without panicking — every structural
// invariant Replay relies on was validated — and (c) re-encodes
// canonically: the re-encoding is never longer than the accepted input
// (which may pad its varints), and Decode(Encode(decoded)) is the
// decoded trace again.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("SPR"))
	f.Add([]byte("SPRT"))
	f.Add([]byte("SPCT\x01\x00"))                         // a retired event-trace format's header
	f.Add([]byte("SPRT\x02\x00"))                         // future version
	f.Add([]byte("SPRT\x01\xff\xff\x7f"))                 // absurd chunk count
	f.Add([]byte("SPRT\x01\x01\x00"))                     // zero-token chunk
	f.Add([]byte("SPRT\x01\x01\x01\x00"))                 // lone resolve token
	f.Add([]byte("SPRT\x01\x01\x01\x01\x00\x00\x00\x20")) // lone fetch
	for _, n := range []int{0, 1, 7, 300, chunkTokens + 5} {
		f.Add(recordSynthetic(n).Encode())
	}
	{ // valid encode with a truncated tail
		enc := recordSynthetic(50).Encode()
		f.Add(enc[:len(enc)-3])
	}
	f.Add(smallChunks(100_000))      // rejected: only the last chunk may be short
	f.Add(wideRecording(f).Encode()) // histories past 16 bits in every chunk

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode returned an untyped error: %v", err)
			}
			return
		}
		if tr.Bytes() > maxBytesPerInputByte*len(data) {
			t.Fatalf("decoded trace retains %d bytes for %d input bytes", tr.Bytes(), len(data))
		}
		// A decoded trace is safe to replay: every resolve pairs with a fetch,
		// column indexing cannot go out of range.
		Replay(tr, []conf.Estimator{conf.SatCounters{}})

		enc := tr.Encode()
		if len(enc) > len(data) {
			t.Fatalf("canonical encoding (%d bytes) longer than the input (%d bytes)", len(enc), len(data))
		}
		tr2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if !reflect.DeepEqual(tr2.Encode(), enc) {
			t.Fatal("Encode is not canonical on decoded traces")
		}
		if tr2.Events() != tr.Events() || tr2.Fetches() != tr.Fetches() {
			t.Fatal("round trip changed event counts")
		}
	})
}

// maxBytesPerInputByte bounds a decoded trace's retained memory per
// input byte. The densest column is the kind bitset: one varint byte
// can stand for a 64-token word of 8 bytes. A fetch encodes to at least
// 4 bytes (a pc delta and a history of one varint byte each, a counter
// byte and a flag byte) and retains at most 10: the pc and history low
// halves, 2 bytes each, their high halves when one value in the chunk
// needs them, 2 bytes each, and 1 byte each of counters and flags. So
// the fetch columns retain at most 2.5 bytes per encoded byte.
const maxBytesPerInputByte = 8

// smallChunks encodes n one-token chunks that alternate a committed
// fetch and its resolve — about 4 input bytes per chunk, the shape that
// would most reward over-allocating per chunk. Decode rejects it for
// n > 1: every chunk but the last must be full.
func smallChunks(n int) []byte {
	data := binary.AppendUvarint([]byte("SPRT\x01"), uint64(n))
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			data = append(data, 1, 1, 0, 0, 0, fCommitted) // ntok, kinds, pc, hist, ctr, flg
		} else {
			data = append(data, 1, 0) // ntok, kinds
		}
	}
	return data
}
