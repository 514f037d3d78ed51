package synth

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"specctrl/internal/emu"
	"specctrl/internal/isa"
	"specctrl/internal/workload"
)

func testTrace() *Trace {
	return &Trace{
		SitePCs: []int64{0x40, 0x48, 0x100},
		Events:  []uint32{0<<1 | 1, 1 << 1, 2<<1 | 1, 0 << 1, 2<<1 | 1},
	}
}

func TestTraceRoundTrip(t *testing.T) {
	in := testTrace()
	data, err := EncodeTrace(in)
	if err != nil {
		t.Fatalf("EncodeTrace: %v", err)
	}
	out, err := DecodeTrace(data)
	if err != nil {
		t.Fatalf("DecodeTrace: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
	again, err := EncodeTrace(out)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("encoding is not canonical: re-encode differs")
	}
}

// TestTraceGolden pins the SPBT bytes of testTrace and the workload
// name FromTrace derives from them. The name is an ingested workload's
// identity and so part of its cell addresses: a codec change that
// moved either would silently orphan every cached cell of an ingested
// trace.
func TestTraceGolden(t *testing.T) {
	const (
		wantBytes = "SPBT\x01\x03\x40\x08\xb8\x01\x05\x01\x02\x05\x00\x05"
		wantName  = "synth:t-0dbb28efe590"
	)
	data, err := EncodeTrace(testTrace())
	if err != nil {
		t.Fatalf("EncodeTrace: %v", err)
	}
	if string(data) != wantBytes {
		t.Fatalf("EncodeTrace(testTrace()) = %q, want %q", data, wantBytes)
	}
	name, err := FromTrace(data)
	if err != nil || name != wantName {
		t.Fatalf("FromTrace = %q, %v; want %q", name, err, wantName)
	}
}

func TestDecodeTraceErrors(t *testing.T) {
	valid, err := EncodeTrace(testTrace())
	if err != nil {
		t.Fatalf("EncodeTrace: %v", err)
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrBadMagic},
		{"short", []byte("SP"), ErrBadMagic},
		{"bad magic", []byte("NOPE\x01\x01\x40\x01\x01"), ErrBadMagic},
		{"future version", []byte("SPBT\x02\x01\x40\x01\x01"), ErrVersion},
		{"header only", []byte("SPBT\x01"), ErrCorrupt},
		{"zero sites", []byte("SPBT\x01\x00"), ErrCorrupt},
		{"site count over input", []byte("SPBT\x01\xff\x7f\x40"), ErrCorrupt},
		{"zero pc delta", []byte("SPBT\x01\x02\x40\x00\x01\x01"), ErrCorrupt},
		{"zero events", []byte("SPBT\x01\x01\x40\x00"), ErrCorrupt},
		{"event site out of range", []byte("SPBT\x01\x01\x40\x01\x04"), ErrCorrupt},
		{"truncated events", []byte("SPBT\x01\x01\x40\x02\x01"), ErrCorrupt},
		{"trailing bytes", append(append([]byte{}, valid...), 0), ErrCorrupt},
		{"truncated tail", valid[:len(valid)-1], ErrCorrupt},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := DecodeTrace(c.data)
			if !errors.Is(err, c.want) {
				t.Fatalf("DecodeTrace = %v, want %v", err, c.want)
			}
		})
	}
}

// TestFromTraceReplay registers a trace workload and checks that the
// replay program's committed conditional branches reproduce the event
// stream exactly, wrapping around for repeated passes.
func TestFromTraceReplay(t *testing.T) {
	tr := testTrace()
	data, err := EncodeTrace(tr)
	if err != nil {
		t.Fatalf("EncodeTrace: %v", err)
	}
	name, err := FromTrace(data)
	if err != nil {
		t.Fatalf("FromTrace: %v", err)
	}
	if !strings.HasPrefix(name, workload.SynthPrefix+"t-") {
		t.Fatalf("FromTrace name %q lacks the synth:t- namespace", name)
	}
	// Idempotent: re-ingesting yields the same workload.
	name2, err := FromTrace(data)
	if err != nil || name2 != name {
		t.Fatalf("second FromTrace = %q, %v; want %q, nil", name2, err, name)
	}
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatalf("workload %q: %v", name, err)
	}

	m := emu.NewMachine(w.Build(3)) // three passes over the stream
	var got []uint32
	for m.Executed < 1_000_000 {
		in, res, err := m.Step()
		if err != nil {
			if errors.Is(err, emu.ErrHalted) {
				break
			}
			t.Fatalf("step: %v", err)
		}
		// Site blocks branch with Bne; the interpreter loop's own
		// closing branches are Blt. Filter to the replayed sites.
		if in.Op != isa.OpBne {
			continue
		}
		e := uint32(0)
		if res.Taken {
			e = 1
		}
		got = append(got, e)
	}
	want := make([]uint32, 0, 3*len(tr.Events))
	for pass := 0; pass < 3; pass++ {
		for _, e := range tr.Events {
			want = append(want, e&1)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed taken stream %v, want %v", got, want)
	}
}

func TestNewTrace(t *testing.T) {
	// 0x200 taken, 0x100 not-taken, 0x200 not-taken.
	tr, err := NewTrace([]int64{0x200, 0x100, 0x200}, []bool{true, false, false})
	if err != nil {
		t.Fatalf("NewTrace: %v", err)
	}
	data, err := EncodeTrace(tr)
	if err != nil {
		t.Fatalf("EncodeTrace: %v", err)
	}
	if tr, err = DecodeTrace(data); err != nil {
		t.Fatalf("DecodeTrace(EncodeTrace(NewTrace)): %v", err)
	}
	wantPCs := []int64{0x100, 0x200}
	if !reflect.DeepEqual(tr.SitePCs, wantPCs) {
		t.Fatalf("SitePCs = %v, want %v", tr.SitePCs, wantPCs)
	}
	wantEvents := []uint32{1<<1 | 1, 0 << 1, 1 << 1}
	if !reflect.DeepEqual(tr.Events, wantEvents) {
		t.Fatalf("Events = %v, want %v", tr.Events, wantEvents)
	}
}

func TestNewTraceEmpty(t *testing.T) {
	if _, err := NewTrace(nil, nil); err == nil {
		t.Fatal("NewTrace of an empty stream succeeded")
	}
}

// TestDecodeTraceAllocBound: DecodeTrace allocates for sites and events
// only once the remaining input could hold them, so a file declaring
// oversized counts costs at most maxBytesPerInputByte heap bytes per
// input byte before it is rejected.
func TestDecodeTraceAllocBound(t *testing.T) {
	header := []byte(traceMagic + "\x01")
	count := func(b []byte, n uint64) []byte { return binary.AppendUvarint(bytes.Clone(b), n) }
	pad := func(b []byte, size int) []byte { return append(b, make([]byte, size-len(b))...) }
	// sites declares n sites at pcs 1..n, one byte each.
	sites := func(n int) []byte { return append(count(header, uint64(n)), bytes.Repeat([]byte{1}, n)...) }

	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"site count over the cap, 64 KiB", pad(count(header, 1<<40), 64<<10)},
		{"site count over the input", pad(count(header, maxTraceSites), 500)},
		{"event count over the cap, 1 MiB", pad(count(sites(10), 1<<40), 1<<20)},
		{"event count over the input", pad(count(sites(10), maxTraceEvents), 64<<10)},
		{"full site table, no event count", sites(maxTraceSites)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeTrace(tc.data); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeTrace = %v, want ErrCorrupt", err)
			}
			perByte := allocPerInputByte(tc.data, func(b []byte) { DecodeTrace(b) })
			t.Logf("%d input bytes: %.2f allocated bytes per input byte", len(tc.data), perByte)
			if perByte > maxBytesPerInputByte {
				t.Fatalf("DecodeTrace of %d bytes allocated %.1f bytes per input byte, want at most %d",
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
