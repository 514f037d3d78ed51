package pipeline

import (
	"testing"

	"specctrl/internal/bpred"
	"specctrl/internal/conf"
	"specctrl/internal/metrics"
	"specctrl/internal/obs"
)

// runTraced runs prog with the estimators attached and a collecting
// tracer on the Tracer hook, and returns the stats and the events.
func runTraced(t *testing.T, iters int, ests ...conf.Estimator) (*Stats, []obs.BranchEvent) {
	t.Helper()
	var events []obs.BranchEvent
	cfg := testConfig()
	cfg.Estimators = ests
	cfg.Tracer = tracerFunc(func(e obs.BranchEvent) { events = append(events, e) })
	st, err := MustNew(cfg, loopProgram(iters), bpred.NewGshare(10)).Run()
	if err != nil {
		t.Fatal(err)
	}
	return st, events
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
	var raw, events []obs.BranchEvent
	cfg := testConfig()
	cfg.Estimators = []conf.Estimator{conf.NewJRS(conf.DefaultJRS)}
	cfg.Tracer = obs.MultiSink(
		tracerFunc(func(e obs.BranchEvent) { events = append(events, e) }),
		tracerFunc(func(e obs.BranchEvent) { raw = append(raw, e) }))
	st, err := MustNew(cfg, loopProgram(3000), bpred.NewGshare(10)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != len(events) {
		t.Fatalf("sinks saw %d and %d events", len(raw), len(events))
	}
	var all, committed metrics.Quadrant
	for i, e := range events {
		if raw[i] != e {
			t.Fatalf("event %d: %+v != other sink's %+v", i, raw[i], e)
		}
		all.Record(e.Pred == e.Outcome, e.HighConf)
		if !e.WrongPath {
			committed.Record(e.Pred == e.Outcome, e.HighConf)
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
