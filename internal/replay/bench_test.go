package replay

import (
	"math/rand"
	"sync"
	"testing"

	"specctrl/internal/bpred"
	"specctrl/internal/conf"
	"specctrl/internal/pipeline"
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

// jrsSweep is a 16-threshold JRS batch — one threshold group.
func jrsSweep() []conf.Estimator {
	ests := make([]conf.Estimator, 16)
	for t := 1; t <= 16; t++ {
		ests[t-1] = conf.NewJRS(conf.JRSConfig{Entries: 1024, Bits: 4, Threshold: t, Enhanced: true})
	}
	return ests
}

// soloBatch is structurally distinct estimators — a one-member group
// each for JRS and Distance, fetch-only loops for the rest.
func soloBatch() []conf.Estimator {
	return []conf.Estimator{
		conf.NewJRS(conf.DefaultJRS),
		conf.SatCounters{},
		conf.NewPatternHistory(12),
		conf.NewDistance(3),
	}
}

// familySweeps is an auc-shaped batch: JRS, CIR, gMDC-CIR and Distance,
// 16 thresholds each. Every family forms one threshold group, so the
// batch costs about four estimators' state work, not sixty-four.
func familySweeps() []conf.Estimator {
	ests := make([]conf.Estimator, 0, 64)
	for t := 1; t <= 16; t++ {
		ests = append(ests,
			conf.NewJRS(conf.JRSConfig{Entries: 4096, Bits: 4, Threshold: t, Enhanced: true}),
			conf.NewOnesCount(conf.OnesCountConfig{Entries: 4096, Bits: 16, Threshold: t, Enhanced: true}),
			conf.NewDistance(t-1),
			conf.NewGlobalMDCIndexed(conf.OnesCountConfig{Entries: 64, Bits: 16, Threshold: t}))
	}
	return ests
}

// replaySink keeps the benchmarked Replay calls live.
var replaySink []pipeline.ConfStats

// benchReplay replays tr against a fresh batch per iteration and
// reports the cost per trace event (fetch and resolve tokens), which
// stays comparable across trace lengths.
func benchReplay(b *testing.B, tr *Trace, batch func() []conf.Estimator) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replaySink = Replay(tr, batch())
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.Events()), "ns/event")
}

// BenchmarkReplayJRSSweep replays a recorded gcc/gshare trace (about
// 36k events at the test horizon, so fixed per-call costs show)
// against a 16-threshold JRS batch.
func BenchmarkReplayJRSSweep(b *testing.B) {
	tr, _ := recordRun(b, "gshare")
	benchReplay(b, tr, jrsSweep)
}

// BenchmarkReplaySolo replays the same trace against structurally
// distinct estimators.
func BenchmarkReplaySolo(b *testing.B) {
	tr, _ := recordRun(b, "gshare")
	benchReplay(b, tr, soloBatch)
}

// BenchmarkReplayThresholdFamilies replays the same trace against the
// auc-shaped batch.
func BenchmarkReplayThresholdFamilies(b *testing.B) {
	tr, _ := recordRun(b, "gshare")
	benchReplay(b, tr, familySweeps)
}

// largeTrace is a synthetic stream of about a million events — long
// enough that per-event cost dominates per-call cost — with a
// recorded run's shape: a few thousand branch sites, mispredictions
// in bursts, wrong-path fetches, and a few tens of branches in flight.
var largeTrace = sync.OnceValue(func() *Trace {
	return synthStream(rand.New(rand.NewSource(1)), streamShape{
		branches: 420_000, sites: 4096, depth: 32, misp: 0.12, wrong: 0.2, calm: 400,
	})
})

// BenchmarkReplayLarge runs the three batches above over largeTrace.
func BenchmarkReplayLarge(b *testing.B) {
	tr := largeTrace()
	for _, bc := range []struct {
		name  string
		batch func() []conf.Estimator
	}{
		{"jrs-sweep", jrsSweep},
		{"solo", soloBatch},
		{"threshold-families", familySweeps},
	} {
		b.Run(bc.name, func(b *testing.B) { benchReplay(b, tr, bc.batch) })
	}
}
