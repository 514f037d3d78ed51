package span

import (
	"encoding/hex"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end request tree; every span created
// under one root shares it, across processes.
type TraceID [16]byte

// SpanID identifies one span within a trace.
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String returns the 32-hex-digit form used in traceparent and JSON.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String returns the 16-hex-digit form used in traceparent and JSON.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// Context is the propagatable identity of a span: what a child needs to
// link itself to a parent, in-process or across an HTTP hop. The zero
// Context is invalid and means "no parent" — starting a child under it
// begins a new trace.
type Context struct {
	Trace   TraceID
	Span    SpanID
	Sampled bool
}

// Valid reports whether the context names a real span.
func (c Context) Valid() bool { return !c.Trace.IsZero() && !c.Span.IsZero() }

// idState seeds span/trace ID generation: an atomic counter stepped by
// the splitmix64 increment and finalized by its mixer, giving unique,
// well-distributed IDs without math/rand (experiment cells must draw
// randomness only from their seeds; ID generation stays outside that
// discipline entirely).
var idState atomic.Uint64

func init() { idState.Store(uint64(time.Now().UnixNano())) }

// nextID returns a nonzero pseudo-random 64-bit ID (splitmix64).
func nextID() uint64 {
	x := idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

func newTraceID() TraceID {
	var t TraceID
	a, b := nextID(), nextID()
	for i := 0; i < 8; i++ {
		t[i] = byte(a >> (8 * i))
		t[8+i] = byte(b >> (8 * i))
	}
	return t
}

func newSpanID() SpanID {
	var s SpanID
	a := nextID()
	for i := 0; i < 8; i++ {
		s[i] = byte(a >> (8 * i))
	}
	return s
}

// Header is the propagation header name. The value follows the W3C
// trace-context traceparent layout (version 00):
//
//	00-<32 hex trace-id>-<16 hex parent-span-id>-<2 hex flags>
//
// with flag bit 0 carrying the sampling decision.
const Header = "traceparent"

// TraceParent renders the context in traceparent form.
func (c Context) TraceParent() string {
	flags := "00"
	if c.Sampled {
		flags = "01"
	}
	return "00-" + c.Trace.String() + "-" + c.Span.String() + "-" + flags
}

// ParseTraceParent parses a traceparent value. Unknown versions, bad
// lengths, non-hex digits and all-zero IDs are all rejected — a
// malformed header must degrade to "no parent", never to a garbage
// trace ID that aliases real ones.
func ParseTraceParent(s string) (Context, error) {
	var c Context
	// 2 (version) + 1 + 32 (trace) + 1 + 16 (span) + 1 + 2 (flags)
	if len(s) != 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return c, fmt.Errorf("span: malformed traceparent %q", s)
	}
	if s[:2] != "00" {
		return c, fmt.Errorf("span: unsupported traceparent version %q", s[:2])
	}
	if _, err := hex.Decode(c.Trace[:], []byte(s[3:35])); err != nil {
		return Context{}, fmt.Errorf("span: bad trace id in %q", s)
	}
	if _, err := hex.Decode(c.Span[:], []byte(s[36:52])); err != nil {
		return Context{}, fmt.Errorf("span: bad span id in %q", s)
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(s[53:55])); err != nil {
		return Context{}, fmt.Errorf("span: bad flags in %q", s)
	}
	if !c.Valid() {
		return Context{}, fmt.Errorf("span: all-zero id in %q", s)
	}
	c.Sampled = flags[0]&1 != 0
	return c, nil
}

// Inject stamps the context onto outgoing HTTP headers. Invalid
// contexts (tracing disabled) stamp nothing.
func Inject(h http.Header, c Context) {
	if c.Valid() {
		h.Set(Header, c.TraceParent())
	}
}

// Extract reads a propagated context from incoming HTTP headers,
// returning the zero Context when the header is absent or malformed.
func Extract(h http.Header) Context {
	v := h.Get(Header)
	if v == "" {
		return Context{}
	}
	c, err := ParseTraceParent(v)
	if err != nil {
		return Context{}
	}
	return c
}

// Attr is one span attribute. Values are strings, int64s, float64s or
// bools (the constructors below); anything else still round-trips
// through the JSON exporters via encoding/json.
type Attr struct {
	Key   string
	Value any
}

// Str returns a string attribute.
func Str(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int returns an integer attribute.
func Int(key string, value int64) Attr { return Attr{Key: key, Value: value} }

// Bool returns a boolean attribute.
func Bool(key string, value bool) Attr { return Attr{Key: key, Value: value} }
