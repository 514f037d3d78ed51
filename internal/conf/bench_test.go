package conf

import (
	"testing"

	"specctrl/internal/bpred"
)

// benchEstimate drives an estimator through its per-branch lifecycle —
// Estimate at fetch, Resolve at resolution — over a small set of
// branch sites with a deterministic mispredict mix, approximating the
// stream the pipeline generates.
func benchEstimate(b *testing.B, e Estimator) {
	b.ReportAllocs()
	var lfsr uint64 = 0xace1
	for i := 0; i < b.N; i++ {
		pc := int64(64 + (i%16)*4)
		lfsr = (lfsr >> 1) ^ (-(lfsr & 1) & 0xb400)
		info := bpred.Info{Pred: lfsr&2 != 0, Hist: lfsr}
		e.Estimate(pc, info)
		e.Resolve(pc, info, i%16 < 13 || lfsr&1 == 1)
	}
}

func BenchmarkEstimateJRS(b *testing.B)         { benchEstimate(b, NewJRS(DefaultJRS)) }
func BenchmarkEstimateSatCounters(b *testing.B) { benchEstimate(b, SatCounters{}) }
func BenchmarkEstimateSatCountersMcFarling(b *testing.B) {
	benchEstimate(b, SatCountersMcFarling{Variant: BothStrong})
}
func BenchmarkEstimatePatternHistory(b *testing.B) { benchEstimate(b, NewPatternHistory(10)) }
func BenchmarkEstimateDistance(b *testing.B)       { benchEstimate(b, NewDistance(4)) }
func BenchmarkEstimateOnesCount(b *testing.B) {
	benchEstimate(b, NewOnesCount(OnesCountConfig{Entries: 1024, Bits: 16, Threshold: 15, Enhanced: true}))
}
func BenchmarkEstimateJRSMcFarling(b *testing.B) {
	benchEstimate(b, NewJRSMcFarling(DefaultJRS, BothTables))
}
func BenchmarkEstimateAlways(b *testing.B) { benchEstimate(b, Always{High: true}) }
