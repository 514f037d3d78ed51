package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"specctrl/internal/bpred"
	"specctrl/internal/conf"
	"specctrl/internal/pipeline"
	"specctrl/internal/rng"
	"specctrl/internal/workload"
)

func randomEvents(seed uint64, n int) []pipeline.BranchEvent {
	g := rng.New(seed)
	events := make([]pipeline.BranchEvent, n)
	cycle := uint64(0)
	for i := range events {
		cycle += uint64(g.Intn(4))
		events[i] = pipeline.BranchEvent{
			PC:        int64(g.Intn(1 << 20)),
			Pred:      g.Bool(0.6),
			Outcome:   g.Bool(0.6),
			HighConf:  g.Bool(0.7),
			WrongPath: g.Bool(0.2),
			Cycle:     cycle,
			ConfMask:  g.Uint64() & 0xff,
		}
	}
	return events
}

func TestRoundTrip(t *testing.T) {
	events := randomEvents(1, 5000)
	var buf bytes.Buffer
	if err := Write(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("length %d != %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d: %+v != %+v", i, got[i], events[i])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		events := randomEvents(seed, int(n%512))
		var buf bytes.Buffer
		if err := Write(&buf, events); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil || len(got) != len(events) {
			return false
		}
		for i := range events {
			if got[i] != events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil || len(got) != 0 {
		t.Errorf("empty round trip: %v %v", got, err)
	}
}

func TestCompactness(t *testing.T) {
	// A realistic trace (from an actual simulation, with locality) must
	// average well under 8 bytes/event.
	w, err := workload.ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.DefaultConfig()
	cfg.MaxCommitted = 100_000
	cfg.MaxCycles = 10_000_000
	cfg.Estimators = []conf.Estimator{conf.NewJRS(conf.DefaultJRS)}
	var buf bytes.Buffer
	sink := NewSink(&buf)
	cfg.Tracer = sink
	sim := pipeline.MustNew(cfg, w.Build(1<<30), bpred.NewGshare(12))
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	perEvent := float64(buf.Len()) / float64(sink.Count())
	if perEvent > 8 {
		t.Errorf("%.1f bytes/event, want < 8", perEvent)
	}
}

func TestSimulationTraceRoundTrip(t *testing.T) {
	w, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.DefaultConfig()
	cfg.MaxCommitted = 50_000
	cfg.MaxCycles = 10_000_000
	cfg.Estimators = []conf.Estimator{conf.SatCounters{}}
	var buf bytes.Buffer
	sink := NewSink(&buf)
	cfg.Tracer = sink
	sim := pipeline.MustNew(cfg, w.Build(1<<30), bpred.NewGshare(12))
	st, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The restored trace must reproduce the quadrants exactly.
	sum := Summarize(got)
	if uint64(sum.Committed) != st.CommittedBr {
		t.Errorf("committed %d != %d", sum.Committed, st.CommittedBr)
	}
	if uint64(sum.Mispredict) != st.CommittedQ.Incorrect() {
		t.Errorf("mispredictions %d != %d", sum.Mispredict, st.CommittedQ.Incorrect())
	}
	if uint64(sum.LowConf) != st.CommittedQ.Clc+st.CommittedQ.Ilc {
		t.Errorf("low-conf %d != %d", sum.LowConf, st.CommittedQ.Clc+st.CommittedQ.Ilc)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOPE....."))); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestBadVersion(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(Magic)
	buf.WriteByte(99) // version varint
	buf.WriteByte(0)  // count
	if _, err := Read(&buf); !errors.Is(err, ErrVersion) {
		t.Errorf("err = %v, want ErrVersion", err)
	}
}

func TestTruncatedStream(t *testing.T) {
	events := randomEvents(3, 100)
	var buf bytes.Buffer
	if err := Write(&buf, events); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{0, 3, 5, len(data) / 2, len(data) - 1} {
		if _, err := Read(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}

func TestImplausibleCountRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(Magic)
	buf.WriteByte(Version)
	// Count = 2^40 as varint.
	var scratch [10]byte
	n := putUvarintHelper(scratch[:], 1<<40)
	buf.Write(scratch[:n])
	if _, err := Read(&buf); err == nil {
		t.Error("implausible count accepted")
	}
}

func putUvarintHelper(buf []byte, v uint64) int {
	i := 0
	for v >= 0x80 {
		buf[i] = byte(v) | 0x80
		v >>= 7
		i++
	}
	buf[i] = byte(v)
	return i + 1
}

func TestSummarize(t *testing.T) {
	events := []pipeline.BranchEvent{
		{Pred: true, Outcome: true, HighConf: true},                   // committed, correct, HC
		{Pred: true, Outcome: false, HighConf: false},                 // committed, mispredicted, LC
		{Pred: false, Outcome: false, HighConf: false},                // committed, correct, LC
		{Pred: true, Outcome: false, HighConf: true, WrongPath: true}, // wrong path
	}
	s := Summarize(events)
	want := Summary{Events: 4, Committed: 3, WrongPath: 1, Mispredict: 1, LowConf: 2}
	if s != want {
		t.Errorf("Summarize = %+v, want %+v", s, want)
	}
}

func TestWriteToFailingWriter(t *testing.T) {
	events := randomEvents(5, 2000)
	w := &failAfter{n: 10}
	if err := Write(w, events); err == nil {
		t.Error("write error not propagated")
	}
}

type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, io.ErrClosedPipe
	}
	f.n -= len(p)
	return len(p), nil
}
