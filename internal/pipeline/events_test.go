package pipeline_test

import (
	"io"
	"testing"

	"specctrl/internal/bpred"
	"specctrl/internal/conf"
	"specctrl/internal/metrics"
	"specctrl/internal/obs"
	"specctrl/internal/pipeline"
	"specctrl/internal/trace"
)

// runTraced runs prog with the estimators attached and a trace.Sink on
// the Tracer hook, and returns the stats and the sink's events.
func runTraced(t *testing.T, iters int, ests ...conf.Estimator) (*pipeline.Stats, []pipeline.BranchEvent) {
	t.Helper()
	sink := trace.NewSink(io.Discard)
	cfg := pipeline.TestingConfig()
	cfg.Estimators = ests
	cfg.Tracer = sink
	st, err := pipeline.MustNew(cfg, pipeline.LoopProgram(iters), bpred.NewGshare(10)).Run()
	if err != nil {
		t.Fatal(err)
	}
	return st, sink.Events()
}

func TestEventTraceConsistency(t *testing.T) {
	st, events := runTraced(t, 1000, conf.NewJRS(conf.DefaultJRS))
	if uint64(len(events)) != st.AllBr {
		t.Fatalf("event count %d != AllBr %d", len(events), st.AllBr)
	}
	var committed, wrong uint64
	for _, e := range events {
		if e.WrongPath {
			wrong++
		} else {
			committed++
		}
	}
	if committed != st.CommittedBr {
		t.Errorf("committed events %d != CommittedBr %d", committed, st.CommittedBr)
	}
	if wrong != st.AllBr-st.CommittedBr {
		t.Errorf("wrong-path events %d != %d", wrong, st.AllBr-st.CommittedBr)
	}
}

func TestEventConfMask(t *testing.T) {
	_, events := runTraced(t, 500, conf.Always{High: true}, conf.Always{High: false})
	if len(events) == 0 {
		t.Fatal("no events")
	}
	for _, e := range events {
		if e.ConfMask&1 == 0 {
			t.Fatal("estimator 0 (AlwaysHC) bit not set")
		}
		if e.ConfMask&2 != 0 {
			t.Fatal("estimator 1 (AlwaysLC) bit set")
		}
		if !e.HighConf {
			t.Fatal("HighConf should mirror estimator 0")
		}
	}
}

// TestTracerHook checks the Tracer hook's stream reproduces the run: the
// first estimator's quadrants rebuilt from the events equal the
// simulator's own CommittedQ and AllQ, and every sink behind
// obs.MultiSink sees the same events in the same order.
func TestTracerHook(t *testing.T) {
	var raw []obs.BranchEvent
	sink := trace.NewSink(io.Discard)
	cfg := pipeline.TestingConfig()
	cfg.Estimators = []conf.Estimator{conf.NewJRS(conf.DefaultJRS)}
	cfg.Tracer = obs.MultiSink(sink, tracerFunc(func(e obs.BranchEvent) { raw = append(raw, e) }))
	st, err := pipeline.MustNew(cfg, pipeline.LoopProgram(3000), bpred.NewGshare(10)).Run()
	if err != nil {
		t.Fatal(err)
	}
	events := sink.Events()
	if len(raw) != len(events) {
		t.Fatalf("sinks saw %d and %d events", len(raw), len(events))
	}
	var all, committed metrics.Quadrant
	for i, e := range events {
		want := obs.BranchEvent{PC: e.PC, Pred: e.Pred, Outcome: e.Outcome,
			HighConf: e.HighConf, WrongPath: e.WrongPath, Cycle: e.Cycle,
			ConfMask: e.ConfMask}
		if raw[i] != want {
			t.Fatalf("event %d: %+v != sink's %+v", i, raw[i], want)
		}
		all.Record(e.Correct(), e.HighConf)
		if !e.WrongPath {
			committed.Record(e.Correct(), e.HighConf)
		}
	}
	if all != st.AllQ || committed != st.CommittedQ {
		t.Errorf("quadrants from events all=%+v committed=%+v, run all=%+v committed=%+v",
			all, committed, st.AllQ, st.CommittedQ)
	}
}

type tracerFunc func(obs.BranchEvent)

func (f tracerFunc) Branch(e obs.BranchEvent) { f(e) }
func (f tracerFunc) Close() error             { return nil }
