package pipeline

import (
	"bytes"
	"testing"

	"specctrl/internal/bpred"
	"specctrl/internal/conf"
	"specctrl/internal/workload"
)

// scanLowConf counts the ring's low-confidence entries with a full
// scan: the oracle the running count must match.
func scanLowConf(r *inflightRing) int {
	n := 0
	for i := 0; i < r.n; i++ {
		if r.buf[(r.head+i)&(len(r.buf)-1)].lowConf {
			n++
		}
	}
	return n
}

// FuzzInflightRingLowConf drives the ring through an arbitrary
// push/popFront/clear sequence — long enough ones grow it past its
// initial capacity — and checks the running low-confidence count
// against the scan after every operation.
func FuzzInflightRingLowConf(f *testing.F) {
	f.Add([]byte{0, 4, 4, 2, 0, 0xf3, 4, 2})
	f.Add(bytes.Repeat([]byte{4, 0, 4, 5}, 24))
	f.Fuzz(func(t *testing.T, ops []byte) {
		var r inflightRing
		r.init(1)
		for i, op := range ops {
			switch {
			case op%4 < 2:
				low := op&4 != 0
				r.push(low).lowConf = low
			case op >= 0xf0:
				r.clear()
			case r.len() > 0:
				r.popFront()
			}
			if got, want := r.lowConf(), scanLowConf(&r); got != want {
				t.Fatalf("op %d (%#x): running count %d, scan %d", i, op, got, want)
			}
		}
	})
}

// TestPendingLowConfMatchesScan checks PendingLowConf against the scan
// on every cycle of real runs: gated and ungated, with squashes, and
// with indirect-jump entries (which are never low confidence) in the
// ring.
func TestPendingLowConfMatchesScan(t *testing.T) {
	xlisp, err := workload.ByName("xlisp")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		indirect  bool
		threshold int // gate fetch at this many pending low-confidence branches; 0 = never
	}{
		{"ungated", false, 0},
		{"gated", false, 2},
		{"indirect", true, 3},
	} {
		cfg := testConfig()
		cfg.Estimators = []conf.Estimator{conf.NewJRS(conf.DefaultJRS)}
		cfg.MaxCommitted = 30_000
		cfg.IndirectPrediction = tc.indirect
		sim := MustNew(cfg, xlisp.Build(1<<30), bpred.NewGshare(12))
		var maxLow int
		for {
			low := sim.PendingLowConf()
			if want := scanLowConf(&sim.pending); low != want {
				t.Fatalf("%s: cycle %d: PendingLowConf %d, scan %d", tc.name, sim.cycle, low, want)
			}
			maxLow = max(maxLow, low)
			done, err := sim.Tick(tc.threshold == 0 || low < tc.threshold)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				break
			}
		}
		if maxLow == 0 {
			t.Errorf("%s: no low-confidence branch was ever pending; the check is vacuous", tc.name)
		}
		if st := sim.Finish(); tc.indirect && st.IndirectBr+st.Returns == 0 {
			t.Errorf("%s: no indirect jumps ran", tc.name)
		}
	}
}
