package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
)

func sampleEvents() []BranchEvent {
	return []BranchEvent{
		{PC: 100, Pred: true, Outcome: true, HighConf: true, Cycle: 5, ConfMask: 3},
		{PC: 104, Pred: true, Outcome: false, Cycle: 6},
		{PC: 90, Pred: false, Outcome: false, WrongPath: true, Cycle: 7, ConfMask: 1},
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var b strings.Builder
	sink := NewJSONL(&b)
	for _, e := range sampleEvents() {
		sink.Branch(e)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.Count() != 3 {
		t.Errorf("count = %d, want 3", sink.Count())
	}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	var got []BranchEvent
	for sc.Scan() {
		var e BranchEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		got = append(got, e)
	}
	want := sampleEvents()
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

type errWriter struct{ err error }

func (w errWriter) Write(p []byte) (int, error) { return 0, w.err }

func TestJSONLStickyError(t *testing.T) {
	boom := errors.New("boom")
	sink := NewJSONL(errWriter{boom})
	// Fill past the bufio buffer so the write error surfaces.
	big := BranchEvent{PC: 1 << 40, Cycle: 1 << 40, ConfMask: 1<<64 - 1}
	for i := 0; i < 10000; i++ {
		sink.Branch(big)
	}
	if err := sink.Close(); !errors.Is(err, boom) {
		t.Errorf("Close = %v, want %v", err, boom)
	}
}

type countSink struct {
	n      int
	closed bool
	err    error
}

func (c *countSink) Branch(BranchEvent) { c.n++ }
func (c *countSink) Close() error       { c.closed = true; return c.err }

func TestMultiSink(t *testing.T) {
	a, b := &countSink{}, &countSink{err: errors.New("a failed")}
	m := MultiSink(a, nil, b)
	for _, e := range sampleEvents() {
		m.Branch(e)
	}
	if err := m.Close(); err == nil {
		t.Error("MultiSink swallowed the Close error")
	}
	if a.n != 3 || b.n != 3 {
		t.Errorf("fan-out counts: %d, %d", a.n, b.n)
	}
	if !a.closed || !b.closed {
		t.Error("not all sinks closed")
	}
}

func TestMultiSinkDegenerate(t *testing.T) {
	if MultiSink() != nil {
		t.Error("empty MultiSink is not the null sink")
	}
	if MultiSink(nil, nil) != nil {
		t.Error("all-nil MultiSink is not the null sink")
	}
	one := &countSink{}
	if got := MultiSink(one); got != Tracer(one) {
		t.Error("single-sink MultiSink should return the sink itself")
	}
}

// BenchmarkJSONLBranch times the JSONL sink's work per branch event, the
// cost simtrace -record-jsonl adds to each conditional branch on top of
// the pipeline's own share (BenchmarkPipelineTickTraced).
func BenchmarkJSONLBranch(b *testing.B) {
	j := NewJSONL(io.Discard)
	events := sampleEvents()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.Branch(events[i%len(events)])
	}
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
}
