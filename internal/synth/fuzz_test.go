package synth

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// FuzzTraceDecode pins the decoder's contract on arbitrary input: it
// either fails with one of the three typed errors, or yields a valid
// trace that retains at most maxBytesPerInputByte bytes per input byte
// and whose canonical re-encoding round-trips and is never larger than
// the accepted input.
func FuzzTraceDecode(f *testing.F) {
	if valid, err := EncodeTrace(testTrace()); err == nil {
		f.Add(valid)
	}
	f.Add([]byte("SPBT\x01\x01\x40\x01\x01"))
	// One site and 100 one-byte events: the retention bound is tightest
	// when events dominate.
	f.Add(append([]byte("SPBT\x01\x01\x40\x64"), bytes.Repeat([]byte{1}, 100)...))
	f.Add([]byte("SPBT\x01\x02\x40\x08\x02\x01\x03"))
	f.Add([]byte("SPBT\x02\x01\x40\x01\x01"))
	f.Add([]byte("SPBT\x01"))
	f.Add([]byte("NOPE"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeTrace(data)
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("decoded trace fails Validate: %v", err)
		}
		if retained := 8*cap(tr.SitePCs) + 4*cap(tr.Events); retained > maxBytesPerInputByte*len(data) {
			t.Fatalf("decoded trace retains %d bytes for %d input bytes", retained, len(data))
		}
		enc, err := EncodeTrace(tr)
		if err != nil {
			t.Fatalf("re-encode of decoded trace: %v", err)
		}
		// Varint padding means accepted input may be non-minimal; the
		// canonical form is never longer and round-trips exactly.
		if len(enc) > len(data) {
			t.Fatalf("canonical encoding (%d bytes) larger than input (%d bytes)", len(enc), len(data))
		}
		tr2, err := DecodeTrace(enc)
		if err != nil {
			t.Fatalf("decode of canonical encoding: %v", err)
		}
		if !reflect.DeepEqual(tr, tr2) {
			t.Fatal("canonical encoding does not round-trip")
		}
		enc2, err := EncodeTrace(tr2)
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical encoding unstable: %v", err)
		}
	})
}

// maxBytesPerInputByte bounds a decoded trace's retained memory per
// input byte: a site is an 8-byte pc and an event a 4-byte word, and
// each is encoded in at least one byte.
const maxBytesPerInputByte = 8
