package replay

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"specctrl/internal/conf"
)

// TestCodecRoundTrip: Decode(Encode(t)) must be t again — the same
// columns, narrow or wide, replaying identically with the same event
// counts — for a real recorded trace, one with wide histories, and
// synthetic shapes (chunk-boundary crossing, single event). Recorded
// and decoded columns alike are exactly sized, so Bytes is their
// summed length on both sides.
func TestCodecRoundTrip(t *testing.T) {
	real, _ := recordRun(t, "mcfarling")
	for _, tc := range []struct {
		name string
		tr   *Trace
	}{
		{"recorded", real},
		{"wide", wideRecording(t)},
		{"single", recordSynthetic(1)},
		{"chunk-crossing", recordSynthetic(chunkTokens)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enc := tc.tr.Encode()
			dec, err := Decode(enc)
			if err != nil {
				t.Fatalf("Decode(Encode): %v", err)
			}
			if dec.Events() != tc.tr.Events() || dec.Fetches() != tc.tr.Fetches() {
				t.Fatalf("round trip changed counts: %d/%d events, %d/%d fetches",
					dec.Events(), tc.tr.Events(), dec.Fetches(), tc.tr.Fetches())
			}
			if !reflect.DeepEqual(dec, tc.tr) {
				t.Fatal("round trip changed the trace's columns")
			}
			for side, tr := range map[string]*Trace{"recorded": tc.tr, "decoded": dec} {
				if got, want := tr.Bytes(), columnBytes(tr); got != want {
					t.Errorf("%s trace: Bytes() = %d, summed column lengths = %d", side, got, want)
				}
			}
			want := Replay(tc.tr, []conf.Estimator{conf.NewJRS(conf.JRSConfig{
				Entries: 256, Bits: 4, Threshold: 10, Enhanced: true})})
			got := Replay(dec, []conf.Estimator{conf.NewJRS(conf.JRSConfig{
				Entries: 256, Bits: 4, Threshold: 10, Enhanced: true})})
			if !reflect.DeepEqual(want, got) {
				t.Fatal("decoded trace replays differently from the original")
			}
			// Encode is canonical on decoded traces: re-encoding gives the
			// same bytes.
			if !reflect.DeepEqual(enc, dec.Encode()) {
				t.Fatal("re-encoding a decoded trace changed the bytes")
			}
		})
	}
}

// columnBytes sums the lengths of tr's columns, in bytes.
func columnBytes(tr *Trace) int {
	n := 0
	for i := range tr.chunks {
		c := &tr.chunks[i]
		n += 8*len(c.kinds) + 4*len(c.pc.dict) + len(c.pc.idx) + 2*(len(c.pc.wide.lo)+len(c.pc.wide.hi)) +
			2*(len(c.hist.wide.lo)+len(c.hist.wide.hi)) + 4*len(c.hist.local) + pendRowBytes*len(c.hist.carry) +
			len(c.ctr) + len(c.flg)
	}
	return n
}

// TestDecodeErrors exercises the typed error taxonomy: inputs that are
// not traces fail with ErrBadMagic, incompatible versions with
// ErrVersion, and structurally broken bodies with ErrCorrupt — never a
// panic and never a silently wrong trace.
func TestDecodeErrors(t *testing.T) {
	valid := recordSynthetic(100).Encode()

	corruptKinds := append([]byte{}, valid...)
	// Chunk header: magic(4) + version(1) + nchunks varint + ntok varint,
	// then the first kind word. Setting a high bit past the token count
	// breaks canonical form for the final chunk's tail; flipping payload
	// flag bits trips the reserved-bit check.
	corruptKinds[len(corruptKinds)-1] |= 0x80 // last flg byte: reserved bit

	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrBadMagic},
		{"short", []byte("SPR"), ErrBadMagic},
		{"wrong magic", []byte("SPCT\x01\x00"), ErrBadMagic},
		{"wrong version", []byte("SPRT\x63\x00"), ErrVersion},
		{"truncated after header", []byte("SPRT\x01"), ErrCorrupt},
		{"absurd chunk count", append([]byte("SPRT\x01"), 0xff, 0xff, 0xff, 0xff, 0x0f), ErrCorrupt},
		{"truncated body", valid[:len(valid)/2], ErrCorrupt},
		{"trailing bytes", append(append([]byte{}, valid...), 0), ErrCorrupt},
		{"reserved flag bits", corruptKinds, ErrCorrupt},
		{"zero tokens in chunk", []byte("SPRT\x01\x01\x00"), ErrCorrupt},
		{"short chunk before the last", shortChunks(2), ErrCorrupt},
		{"resolve with nothing pending", []byte("SPRT\x01\x01\x01\x00"), ErrCorrupt},
		{"pc above int32", oneFetch(zigzag(1<<31), 0), ErrCorrupt},
		{"pc below int32", oneFetch(zigzag(-1<<31-1), 0), ErrCorrupt},
		{"history over 32 bits", oneFetch(0, 1<<32), ErrCorrupt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(tc.data)
			if !errors.Is(err, tc.want) {
				t.Fatalf("Decode = %v, want %v", err, tc.want)
			}
		})
	}

	for _, data := range [][]byte{valid, shortChunks(1), recordSynthetic(chunkTokens + 5).Encode()} {
		if _, err := Decode(data); err != nil {
			t.Fatalf("valid trace rejected: %v", err)
		}
	}
	for _, data := range [][]byte{oneFetch(zigzag(1<<31-1), 1<<32-1), oneFetch(zigzag(-1<<31), 0)} {
		if _, err := Decode(data); err != nil {
			t.Fatalf("in-range fetch rejected: %v", err)
		}
	}
}

// shortChunks encodes a trace of n chunks of 1000 tokens each. Only a
// trace's last chunk may be short, so it is a valid trace for n = 1
// only.
func shortChunks(n int) []byte {
	c := recordSynthetic(1000).chunks[0]
	tr := &Trace{}
	for range n {
		tr.chunks = append(tr.chunks, c)
	}
	return tr.Encode()
}

// oneFetch encodes a one-chunk trace holding a single committed fetch
// event with the given encoded pc delta and history.
func oneFetch(pcDelta, hist uint64) []byte {
	b := append([]byte(traceMagic), traceVersion, 1, 1, 1) // 1 chunk, 1 token, kind word 1
	b = binary.AppendUvarint(b, pcDelta)
	b = binary.AppendUvarint(b, hist)
	return append(b, 0, fCommitted)
}

// TestDecodeEmptyTrace: a recorder that saw no events encodes to a
// header-only stream that decodes back to zero events.
func TestDecodeEmptyTrace(t *testing.T) {
	tr, err := NewRecorder().Trace()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(tr.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Events() != 0 || dec.Fetches() != 0 {
		t.Fatalf("empty trace round-tripped to %d events / %d fetches", dec.Events(), dec.Fetches())
	}
}

// TestDecodeAllocBound: Decode allocates for a chunk, a kind word or a
// fetch only once the remaining input could hold it, so a hostile file
// costs at most maxBytesPerInputByte heap bytes per input byte before
// it is rejected, whatever counts it declares.
func TestDecodeAllocBound(t *testing.T) {
	header := func(nchunks uint64) []byte {
		return binary.AppendUvarint([]byte(traceMagic+"\x01"), nchunks)
	}
	// declared returns a file of size bytes that declares nchunks
	// chunks and holds only zero bytes after the count.
	declared := func(size int, nchunks uint64) []byte {
		b := header(nchunks)
		return append(b, make([]byte, size-len(b))...)
	}
	// fullChunk starts one chunk of chunkTokens tokens.
	fullChunk := binary.AppendUvarint(header(1), chunkTokens)
	allOnes := bytes.Clone(fullChunk)
	for range chunkTokens / 64 {
		allOnes = binary.AppendUvarint(allOnes, math.MaxUint64)
	}

	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"chunk count = input size, 64 KiB", declared(64<<10, 64<<10)},
		{"chunk count = input size, 1 MiB", declared(1<<20, 1<<20)},
		{"chunk count the input could hold, no chunks, 1 MiB", declared(1<<20, (1<<20-8)/minFullChunkBytes+1)},
		{"65536 tokens, short body", append(bytes.Clone(fullChunk), make([]byte, 500)...)},
		{"all-ones kind words, no columns", allOnes},
		{"one-token chunks, 400 KB", smallChunks(100_000)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Decode(tc.data); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode = %v, want ErrCorrupt", err)
			}
			perByte := allocPerInputByte(tc.data, func(b []byte) { Decode(b) })
			t.Logf("%d input bytes: %.2f allocated bytes per input byte", len(tc.data), perByte)
			if perByte > maxBytesPerInputByte {
				t.Fatalf("Decode of %d bytes allocated %.1f bytes per input byte, want at most %d",
					len(tc.data), perByte, maxBytesPerInputByte)
			}
		})
	}
}

// allocPerInputByte is the heap bytes one call of decode allocates per
// byte of data: the runtime's TotalAlloc delta over repeated calls.
func allocPerInputByte(data []byte, decode func([]byte)) float64 {
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		decode(data)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs*len(data))
}
