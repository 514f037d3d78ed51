package bpred

import "testing"

// benchPredict drives a predictor through its full per-branch
// lifecycle — Predict, Resolve, and Recover on mispredictions —
// over a small working set of branch sites with data-dependent
// outcomes, approximating the mix the pipeline generates.
func benchPredict(b *testing.B, p Predictor) {
	b.ReportAllocs()
	var lfsr uint64 = 0xace1
	for i := 0; i < b.N; i++ {
		pc := int64(64 + (i%16)*4)
		// 16-bit LFSR: cheap deterministic outcome stream with both
		// biased and random-looking sites.
		lfsr = (lfsr >> 1) ^ (-(lfsr & 1) & 0xb400)
		taken := i%16 < 10 || lfsr&1 == 1
		pred, ckpt, info := p.Predict(pc)
		p.Resolve(pc, info, taken)
		if pred != taken {
			p.Recover(ckpt, pc, taken)
		}
	}
}

func BenchmarkPredictGshare(b *testing.B)        { benchPredict(b, NewGshare(GshareBits)) }
func BenchmarkPredictGshareNonSpec(b *testing.B) { benchPredict(b, NewGshareNonSpec(GshareBits)) }
func BenchmarkPredictMcFarling(b *testing.B)     { benchPredict(b, NewMcFarling(McFarlingBits)) }
func BenchmarkPredictSAg(b *testing.B)           { benchPredict(b, NewSAg(SAgBHTBits, SAgHistBits)) }
func BenchmarkPredictBimodal(b *testing.B)       { benchPredict(b, NewBimodal(12)) }
func BenchmarkPredictStatic(b *testing.B)        { benchPredict(b, Static{Taken: true}) }
