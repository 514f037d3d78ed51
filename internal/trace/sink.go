package trace

import (
	"io"

	"specctrl/internal/obs"
	"specctrl/internal/pipeline"
)

// Sink adapts the binary trace writer to the simulator's obs.Tracer
// hook, making the compact format one sink among several (obs.JSONL
// for debugging, nil for the null sink). The format's header carries
// the event count, so the sink buffers events and serializes the
// stream on Close.
type Sink struct {
	w      io.Writer
	events []pipeline.BranchEvent
	closed bool
	err    error
}

var _ obs.Tracer = (*Sink)(nil)

// NewSink returns a Sink that will write the trace stream to w on
// Close. The caller owns w.
func NewSink(w io.Writer) *Sink {
	return &Sink{w: w}
}

// Branch buffers one event.
func (s *Sink) Branch(e obs.BranchEvent) {
	s.events = append(s.events, pipeline.BranchEvent{
		PC:        e.PC,
		Pred:      e.Pred,
		Outcome:   e.Outcome,
		HighConf:  e.HighConf,
		WrongPath: e.WrongPath,
		Cycle:     e.Cycle,
		ConfMask:  e.ConfMask,
	})
}

// Count returns the number of events buffered so far.
func (s *Sink) Count() int { return len(s.events) }

// Events returns the buffered events (borrowed, valid until the next
// Branch call).
func (s *Sink) Events() []pipeline.BranchEvent { return s.events }

// Close serializes the buffered events to the underlying writer.
// Subsequent calls return the first result without rewriting.
func (s *Sink) Close() error {
	if s.closed {
		return s.err
	}
	s.closed = true
	s.err = Write(s.w, s.events)
	return s.err
}
