package span

import (
	"context"
	"encoding/binary"
	"sync"
	"time"
)

// DefaultCapacity is the default bound on retained finished spans.
// Spans are small (a name, IDs, a handful of attributes), so 16k spans
// cost low single-digit megabytes while holding several full `-exp all`
// sweeps' worth of cell spans.
const DefaultCapacity = 16384

// Options configures a Tracer.
type Options struct {
	// Capacity bounds the in-memory store of finished spans; once full,
	// the oldest spans are overwritten (<= 0 selects DefaultCapacity).
	Capacity int
	// Sample is the head-sampling fraction of new root traces in
	// [0, 1]; 0 means sample everything (the zero Options is a fully
	// sampling tracer). The decision is made once per trace from its
	// TraceID and inherited by every child, local or remote, so a trace
	// is always recorded whole or not at all.
	Sample float64
}

// Span is one timed operation. Fields are exported for exporters and
// report builders; instrumentation may adjust Start (e.g. to backdate a
// queue-wait span to its enqueue time) and add Attrs any time before
// End. All methods are nil-receiver-safe, which is what makes disabled
// tracing a single nil-check at the call site.
type Span struct {
	Name   string
	Parent SpanID // zero for root spans
	Start  time.Time
	Finish time.Time
	Attrs  []Attr

	ctx  Context
	tr   *Tracer
	done bool
}

// Context returns the span's propagatable identity (zero for nil).
func (s *Span) Context() Context {
	if s == nil {
		return Context{}
	}
	return s.ctx
}

// SetAttrs appends attributes. No-op on nil.
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, attrs...)
}

// Duration returns Finish - Start (zero before End).
func (s *Span) Duration() time.Duration {
	if s == nil || s.Finish.IsZero() {
		return 0
	}
	return s.Finish.Sub(s.Start)
}

// Attr returns the value of the first attribute named key, or nil.
func (s *Span) Attr(key string) any {
	if s == nil {
		return nil
	}
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

// End finishes the span now. No-op on nil; second calls are ignored.
func (s *Span) End() { s.EndAt(time.Now()) }

// EndAt finishes the span at an explicit instant (for phases whose
// boundaries were measured before the span object was created).
func (s *Span) EndAt(t time.Time) {
	if s == nil || s.done {
		return
	}
	s.done = true
	s.Finish = t
	if s.tr != nil && s.ctx.Sampled {
		s.tr.record(*s)
	}
}

// Tracer creates spans and retains the finished ones in a bounded ring.
// The nil *Tracer is the disabled tracer: every method is safe to call
// and does nothing. A Tracer is safe for concurrent use.
type Tracer struct {
	capacity int
	sample   float64

	mu         sync.Mutex
	ring       []Span
	next       int    // ring write cursor once len(ring) == capacity
	finished   uint64 // sampled spans ever recorded
	sampledOut uint64 // root spans dropped by head sampling
}

// New returns a Tracer with the given options.
func New(opts Options) *Tracer {
	if opts.Capacity <= 0 {
		opts.Capacity = DefaultCapacity
	}
	if opts.Sample <= 0 || opts.Sample > 1 {
		opts.Sample = 1
	}
	return &Tracer{capacity: opts.Capacity, sample: opts.Sample}
}

// sampleTrace decides head sampling for a new trace, deterministically
// from the TraceID (so the decision can be re-derived anywhere the ID
// travels): the ID's low 8 bytes, read as a binary fraction, must fall
// below the sampling rate.
func (t *Tracer) sampleTrace(id TraceID) bool {
	if t.sample >= 1 {
		return true
	}
	v := binary.LittleEndian.Uint64(id[:8])
	return float64(v) < t.sample*(1<<64)
}

// Root starts a new trace and returns its root span. On a nil tracer
// it returns nil. A head-sampling rejection still returns a usable span
// carrying valid (unsampled) IDs, so propagation keeps working while
// nothing is recorded.
func (t *Tracer) Root(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	id := newTraceID()
	sampled := t.sampleTrace(id)
	if !sampled {
		t.mu.Lock()
		t.sampledOut++
		t.mu.Unlock()
	}
	return t.start(Context{Trace: id, Span: newSpanID(), Sampled: sampled}, SpanID{}, name, attrs)
}

// Child starts a span under parent. An invalid parent (the zero
// Context) starts a new trace instead, so call sites need no
// have-I-got-a-parent branching. An unsampled parent produces an
// unsampled child: the whole tree inherits the root's head-sampling
// decision.
func (t *Tracer) Child(parent Context, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	if !parent.Valid() {
		return t.Root(name, attrs...)
	}
	return t.start(Context{Trace: parent.Trace, Span: newSpanID(), Sampled: parent.Sampled},
		parent.Span, name, attrs)
}

func (t *Tracer) start(ctx Context, parent SpanID, name string, attrs []Attr) *Span {
	return &Span{
		Name:   name,
		Parent: parent,
		Start:  time.Now(),
		Attrs:  attrs,
		ctx:    ctx,
		tr:     t,
	}
}

// record retains a finished span, overwriting the oldest once the ring
// is full.
func (t *Tracer) record(s Span) {
	t.mu.Lock()
	if len(t.ring) < t.capacity {
		t.ring = append(t.ring, s)
	} else {
		t.ring[t.next] = s
		t.next = (t.next + 1) % t.capacity
	}
	t.finished++
	t.mu.Unlock()
}

// Snapshot returns the retained finished spans, oldest first. Nil
// tracers return nil.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Stats describes the span store's occupancy (served on
// /debug/traces?stats=1).
type Stats struct {
	Capacity    int     `json:"capacity"`
	Stored      int     `json:"stored"`
	Finished    uint64  `json:"finished"`    // sampled spans ever recorded
	Dropped     uint64  `json:"dropped"`     // recorded spans overwritten by the ring
	SampledOut  uint64  `json:"sampledOut"`  // root spans rejected by head sampling
	Utilization float64 `json:"utilization"` // stored / capacity
}

// Stats returns the store's current occupancy. Nil tracers report the
// zero Stats.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := Stats{
		Capacity:   t.capacity,
		Stored:     len(t.ring),
		Finished:   t.finished,
		Dropped:    t.finished - uint64(len(t.ring)),
		SampledOut: t.sampledOut,
	}
	st.Utilization = float64(st.Stored) / float64(st.Capacity)
	return st
}

// ctxKey keys the span stored in a context.Context.
type ctxKey struct{}

// NewContext returns ctx carrying s, for handing a parent span down a
// call path that already threads a context (the runner hands each cell
// its span this way).
func NewContext(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}
