package replay

import (
	"errors"
	"reflect"
	"testing"

	"specctrl/internal/conf"
)

// FuzzDecode hardens the trace decoder against untrusted input, the
// same contract internal/trace's reader keeps: Decode must never
// panic, must fail with exactly one of the typed errors, and on
// success must return a trace that (a) replays without panicking —
// every structural invariant Replay relies on was validated — and
// (b) re-encodes canonically: Decode(Encode(decoded)) is the decoded
// trace again.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("SPR"))
	f.Add([]byte("SPRT"))
	f.Add([]byte("SPCT\x01\x00"))                         // the branch-trace format's magic
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

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode returned an untyped error: %v", err)
			}
			return
		}
		// A decoded trace is safe to replay: every resolve pairs with a fetch,
		// column indexing cannot go out of range.
		Replay(tr, []conf.Estimator{conf.SatCounters{}})

		enc := tr.Encode()
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
