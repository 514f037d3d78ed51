package codec

import (
	"errors"
	"testing"
)

var testFormat = NewFormat("pkg", "test file", "TEST", 3)

// TestOpen: a header check fails with the format's typed error, which
// errors.Is also matches against the kernel's.
func TestOpen(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrBadMagic},
		{"short", []byte("TES"), ErrBadMagic},
		{"magic only", []byte("TEST"), ErrBadMagic},
		{"wrong magic", []byte("TSET\x03"), ErrBadMagic},
		{"wrong version", []byte("TEST\x04"), ErrVersion},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := testFormat.Open(tc.data)
			if !errors.Is(err, tc.want) {
				t.Fatalf("Open = %v, want %v", err, tc.want)
			}
			var own error
			switch tc.want {
			case ErrBadMagic:
				own = testFormat.ErrBadMagic
			case ErrVersion:
				own = testFormat.ErrVersion
			}
			if !errors.Is(err, own) {
				t.Fatalf("Open = %v, does not wrap the format's %v", err, own)
			}
		})
	}
	r, err := testFormat.Open(testFormat.Header(nil))
	if err != nil {
		t.Fatalf("Open(Header) = %v", err)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("header-only input: Done = %v", err)
	}
}

// TestErrorText: each format spells its errors with its package name.
func TestErrorText(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want string
	}{
		{testFormat.ErrBadMagic, "pkg: not a test file (bad magic)"},
		{testFormat.ErrVersion, "pkg: unsupported version of test file"},
		{testFormat.ErrCorrupt, "pkg: corrupt test file"},
		{testFormat.Corruptf("row %d", 7), "pkg: corrupt test file: row 7"},
	} {
		if got := tc.err.Error(); got != tc.want {
			t.Errorf("error text %q, want %q", got, tc.want)
		}
	}
}

// TestReader walks a body of a uvarint and three raw bytes, then
// checks each way a read can fail.
func TestReader(t *testing.T) {
	r, err := testFormat.Open([]byte("TEST\x03\xac\x02\x07\x08\x09"))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := r.Uvarint("value"); err != nil || v != 300 {
		t.Fatalf("Uvarint = %d, %v; want 300", v, err)
	}
	b, err := r.Bytes(2)
	if err != nil || string(b) != "\x07\x08" {
		t.Fatalf("Bytes(2) = %q, %v", b, err)
	}
	if cap(b) != 2 {
		t.Fatalf("Bytes(2) has capacity %d, want 2", cap(b))
	}
	if err := r.Done(); !errors.Is(err, testFormat.ErrCorrupt) {
		t.Fatalf("Done with 1 byte left = %v, want ErrCorrupt", err)
	}
	if b, err := r.Bytes(1); err != nil || string(b) != "\x09" {
		t.Fatalf("Bytes(1) = %q, %v", b, err)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done at the end = %v", err)
	}
	for name, read := range map[string]func() error{
		"uvarint past the end": func() error { _, err := r.Uvarint("value"); return err },
		"bytes past the end":   func() error { _, err := r.Bytes(1); return err },
	} {
		if err := read(); !errors.Is(err, testFormat.ErrCorrupt) || !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s = %v, want ErrCorrupt", name, err)
		}
	}

	// An 11-byte varint overflows 64 bits.
	r, _ = testFormat.Open([]byte("TEST\x03\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	if _, err := r.Uvarint("value"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("overlong varint = %v, want ErrCorrupt", err)
	}
}

// TestCount: a declared count passes exactly when its entries, at
// their smallest encoding, fit in the input that is left.
func TestCount(t *testing.T) {
	r, _ := testFormat.Open([]byte("TEST\x03" + "12345678"))
	for _, tc := range []struct {
		n       uint64
		minSize int
		ok      bool
	}{
		{0, 1, true},
		{8, 1, true},
		{9, 1, false},
		{2, 4, true},
		{3, 4, false},
		{4, 2, true},
		{5, 2, false},
		{1, 9, false},
		{1 << 63, 1, false},
		{^uint64(0), 4, false},
	} {
		n, err := r.Count(tc.n, tc.minSize, "entries")
		if tc.ok && (err != nil || n != int(tc.n)) {
			t.Errorf("Count(%d, %d) = %d, %v; want %d, nil", tc.n, tc.minSize, n, err, tc.n)
		}
		if !tc.ok && !errors.Is(err, testFormat.ErrCorrupt) {
			t.Errorf("Count(%d, %d) = %d, %v; want ErrCorrupt", tc.n, tc.minSize, n, err)
		}
	}
}
