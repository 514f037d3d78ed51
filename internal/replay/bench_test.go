package replay

import (
	"testing"

	"specctrl/internal/bpred"
	"specctrl/internal/conf"
)

// BenchmarkRecord measures the recorder's per-event cost: one fetch
// (Estimate + Branch) plus its resolve, the sequence the pipeline
// drives for every committed conditional branch.
func BenchmarkRecord(b *testing.B) {
	b.ReportAllocs()
	r := NewRecorder()
	inflight := 0
	for i := 0; i < b.N; i++ {
		synthFetch(r, int64(4096+i*4), true)
		if inflight++; inflight == 8 {
			for ; inflight > 0; inflight-- {
				r.Resolve(0, bpred.Info{}, false)
			}
		}
	}
}

// BenchmarkReplayJRSSweep replays a recorded gcc/gshare trace against a
// 16-threshold JRS batch — the grouped path where all members share the
// leader's table. Reported time is per full-trace replay (~180k events
// at the test horizon).
func BenchmarkReplayJRSSweep(b *testing.B) {
	tr, _ := recordRun(b, "gshare")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ests := make([]conf.Estimator, 16)
		for t := 1; t <= 16; t++ {
			ests[t-1] = conf.NewJRS(conf.JRSConfig{Entries: 1024, Bits: 4, Threshold: t, Enhanced: true})
		}
		Replay(tr, ests)
	}
}

// BenchmarkReplaySolo replays the same trace against structurally
// distinct estimators — the devirtualized solo path.
func BenchmarkReplaySolo(b *testing.B) {
	tr, _ := recordRun(b, "gshare")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Replay(tr, []conf.Estimator{
			conf.NewJRS(conf.DefaultJRS),
			conf.SatCounters{},
			conf.NewPatternHistory(12),
			conf.NewDistance(3),
		})
	}
}

// BenchmarkReplayThresholdFamilies replays the same trace against an
// auc-shaped batch: JRS, CIR, gMDC-CIR and Distance, 16 thresholds each.
// Every family forms one threshold group, so the batch costs about four
// estimators' state work, not sixty-four.
func BenchmarkReplayThresholdFamilies(b *testing.B) {
	tr, _ := recordRun(b, "gshare")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ests := make([]conf.Estimator, 0, 64)
		for t := 1; t <= 16; t++ {
			ests = append(ests,
				conf.NewJRS(conf.JRSConfig{Entries: 4096, Bits: 4, Threshold: t, Enhanced: true}),
				conf.NewOnesCount(conf.OnesCountConfig{Entries: 4096, Bits: 16, Threshold: t, Enhanced: true}),
				conf.NewDistance(t-1),
				conf.NewGlobalMDCIndexed(conf.OnesCountConfig{Entries: 64, Bits: 16, Threshold: t}))
		}
		Replay(tr, ests)
	}
}
