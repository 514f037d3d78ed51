package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The kernel's typed errors. A format's own errors wrap them.
var (
	// ErrBadMagic means the input does not start with the format's magic.
	ErrBadMagic = errors.New("bad magic")
	// ErrVersion means a well-formed header with an unknown version.
	ErrVersion = errors.New("unsupported version")
	// ErrCorrupt means the input has a valid header but its body is
	// truncated, overlong or structurally inconsistent.
	ErrCorrupt = errors.New("corrupt")
)

// Format is one versioned binary format: its header and the typed
// errors its decoder returns.
type Format struct {
	magic   string
	version byte
	// ErrBadMagic, ErrVersion and ErrCorrupt are the format's own
	// errors; each wraps the kernel error of the same name.
	ErrBadMagic, ErrVersion, ErrCorrupt error
}

// NewFormat returns the format with the given magic and version. Its
// errors read "<pkg>: not a <noun> (bad magic)", "<pkg>: unsupported
// version of <noun>" and "<pkg>: corrupt <noun>".
func NewFormat(pkg, noun, magic string, version byte) *Format {
	return &Format{
		magic:       magic,
		version:     version,
		ErrBadMagic: fmt.Errorf("%s: not a %s (%w)", pkg, noun, ErrBadMagic),
		ErrVersion:  fmt.Errorf("%s: %w of %s", pkg, ErrVersion, noun),
		ErrCorrupt:  fmt.Errorf("%s: %w %s", pkg, ErrCorrupt, noun),
	}
}

// Header appends the format's magic and version to buf.
func (f *Format) Header(buf []byte) []byte {
	return append(append(buf, f.magic...), f.version)
}

// Corruptf returns the format's ErrCorrupt with context.
func (f *Format) Corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", f.ErrCorrupt, fmt.Sprintf(format, args...))
}

// Open checks data's header and returns a Reader positioned after it.
func (f *Format) Open(data []byte) (*Reader, error) {
	n := len(f.magic)
	if len(data) < n+1 || string(data[:n]) != f.magic {
		return nil, f.ErrBadMagic
	}
	if v := data[n]; v != f.version {
		return nil, fmt.Errorf("%w: got %d, want %d", f.ErrVersion, v, f.version)
	}
	return &Reader{f: f, buf: data, off: n + 1}, nil
}

// Reader is a cursor over one untrusted encoded input. Every failure
// is the format's ErrCorrupt.
type Reader struct {
	f   *Format
	buf []byte
	off int
}

// Uvarint reads one uvarint; what names it in the error.
func (r *Reader) Uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, r.f.Corruptf("truncated or oversized varint (%s) at offset %d", what, r.off)
	}
	r.off += n
	return v, nil
}

// Bytes returns the next n raw bytes. They alias the input, capped
// with a full-slice expression so that whoever keeps them retains, and
// can append in place to, no more than n.
func (r *Reader) Bytes(n int) ([]byte, error) {
	if len(r.buf)-r.off < n {
		return nil, r.f.Corruptf("need %d bytes at offset %d, have %d", n, r.off, len(r.buf)-r.off)
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b, nil
}

// Count checks a declared count of n entries, each encoded in at least
// minSize bytes, against the input that is left, and returns it as an
// int. Call it before allocating anything sized by n.
func (r *Reader) Count(n uint64, minSize int, what string) (int, error) {
	left := len(r.buf) - r.off
	if n > uint64(left/minSize) {
		return 0, r.f.Corruptf("%s %d exceeds the remaining input (%d bytes, at least %d per entry)",
			what, n, left, minSize)
	}
	return int(n), nil
}

// Done rejects trailing bytes after the last entry.
func (r *Reader) Done() error {
	if r.off != len(r.buf) {
		return r.f.Corruptf("%d trailing bytes at offset %d", len(r.buf)-r.off, r.off)
	}
	return nil
}
