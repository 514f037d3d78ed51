// Architectural trace tier: the committed branch-outcome stream.
//
// One stage upstream of the estimator-visible event stream sits the
// *architectural* stream — the (pc, outcome) sequence of committed
// conditional branches in program order. It is a property of the program
// alone: wrong-path fetches, predictor tables, and pipeline timing never
// change which branches commit or which way they go. Recording it once
// per workload lets any predictor model and any estimator configuration
// be re-evaluated as a pure table-update loop, without touching the
// emulator or the pipeline (the trace-driven methodology of classic
// predictability studies).
//
// The only pipeline influence on the stream is its *length*: the run
// stops when the committed-instruction budget is reached, and the exact
// overshoot depends on fetch-group alignment, which is timing- and
// therefore predictor-dependent. Recordings consequently always use one
// canonical recording configuration (the experiments layer records with
// its gshare predictor), so every consumer of a workload's arch trace
// sees the identical stream regardless of which predictor it evaluates.

package replay

import (
	"specctrl/internal/bpred"
	"specctrl/internal/conf"
	"specctrl/internal/obs"
	"specctrl/internal/pipeline"
)

// archChunkTokens is the branch capacity of one arch chunk; the same
// sizing rationale as chunkTokens applies.
const archChunkTokens = 1 << 16

// archChunk is one fixed-capacity run of committed branches: a pc column
// and an outcome bitset (bit set = taken), one bit per branch.
type archChunk struct {
	n        int
	pc       []int64
	outcomes []uint64 // ⌈n/64⌉ words, bit i = branch i taken
}

// full reports whether the chunk has reached capacity.
func (c *archChunk) full() bool { return c.n == archChunkTokens }

// taken reports branch i's committed outcome.
func (c *archChunk) taken(i int) bool { return c.outcomes[i>>6]&(1<<(uint(i)&63)) != 0 }

// bytes estimates the chunk's retained memory from slice capacities.
func (c *archChunk) bytes() int { return cap(c.pc)*8 + cap(c.outcomes)*8 }

// ArchTrace is one workload's committed branch-outcome stream: every
// committed conditional branch's pc and direction, in program order,
// plus the committed-instruction count of the recording run. Branch
// target classes beyond conditional-direct are not yet distinguished;
// the codec reserves header space for a class column (see archcodec.go),
// and every branch in a v1 trace is conditional-direct by definition.
//
// An ArchTrace is immutable once obtained from ArchRecorder.Trace,
// ArchFromTrace, or DecodeArch, and is safe for concurrent ArchReplay
// and ArchSites calls.
type ArchTrace struct {
	chunks    []*archChunk
	branches  int
	committed uint64
}

// Branches returns the number of committed conditional branches.
func (t *ArchTrace) Branches() int { return t.branches }

// Committed returns the committed-instruction count of the recording
// run, for synthesizing the Stats fields replay cannot observe.
func (t *ArchTrace) Committed() uint64 { return t.committed }

// Bytes estimates the trace's retained memory; the arch cache's LRU
// budget accounts entries with it.
func (t *ArchTrace) Bytes() int {
	n := 0
	for _, c := range t.chunks {
		n += c.bytes()
	}
	return n
}

// append adds one committed branch to the trace.
func (t *ArchTrace) append(pc int64, taken bool) {
	var c *archChunk
	if n := len(t.chunks); n > 0 && !t.chunks[n-1].full() {
		c = t.chunks[n-1]
	} else {
		c = &archChunk{outcomes: make([]uint64, archChunkTokens/64)}
		t.chunks = append(t.chunks, c)
	}
	if taken {
		c.outcomes[c.n>>6] |= 1 << (uint(c.n) & 63)
	}
	c.pc = append(c.pc, pc)
	c.n++
	t.branches++
}

// ArchRecorder captures the committed branch stream of one run. It
// plugs into the pipeline as the run's obs.Tracer: correct-path fetch
// events arrive in fetch order, which for the committed path is program
// order, and wrong-path events are dropped. Attach it with
// Config.Tracer; no estimator is needed, so the recording run's base
// statistics are exactly an estimator-less run's.
//
// Call SetCommitted with the finished run's committed-instruction count
// before taking the trace. An ArchRecorder is single-run,
// single-goroutine state, like the simulator that drives it.
type ArchRecorder struct {
	t ArchTrace
}

// NewArchRecorder returns an empty recorder.
func NewArchRecorder() *ArchRecorder { return &ArchRecorder{} }

// Branch implements obs.Tracer: committed-path branches append to the
// stream, wrong-path branches are filtered out.
func (r *ArchRecorder) Branch(ev obs.BranchEvent) {
	if ev.WrongPath {
		return
	}
	r.t.append(ev.PC, ev.Outcome)
}

// Close implements obs.Tracer (the recorder has nothing to flush).
func (r *ArchRecorder) Close() error { return nil }

// SetCommitted records the run's committed-instruction count in the
// trace (from the finished run's Stats.Committed).
func (r *ArchRecorder) SetCommitted(n uint64) { r.t.committed = n }

// Trace returns the finished recording.
func (r *ArchRecorder) Trace() *ArchTrace { return &r.t }

// ArchFromTrace derives the committed branch-outcome stream from an
// estimator-visible event trace recorded under the same canonical
// configuration: committed fetch events in fetch order are the
// committed branches in program order, and each one's outcome is its
// predicted direction corrected by the correctness flag. committed is
// the recording run's committed-instruction count (from the trace's
// sidecar base stats). The result is bit-identical to what an
// ArchRecorder attached to the same run would have captured — a
// property the tests in this package pin.
func ArchFromTrace(tr *Trace, committed uint64) *ArchTrace {
	t := &ArchTrace{committed: committed}
	for _, c := range tr.chunks {
		fi := 0
		for k := 0; k < c.n; k++ {
			if !c.isFetch(k) {
				continue
			}
			flg := c.flg[fi]
			pc := c.pc[fi]
			fi++
			if flg&fCommitted == 0 {
				continue
			}
			// outcome == pred exactly when the prediction was correct,
			// so (pred == correct) reconstructs the direction bit.
			t.append(pc, (flg&fPred != 0) == (flg&fCorrect != 0))
		}
	}
	return t
}

// branch applies one committed branch of the canonical trace-driven
// evaluation to every estimator: the fetch-time quadrant updates, then
// the immediate resolve. Every branch is committed and resolves before
// the next branch is fetched, so AllQ equals CommittedQ and estimator
// state trains with no resolve lag.
func (e *evaluator) branch(pc int64, info bpred.Info, correct bool) {
	e.fetch(pc, info, correct, true)
	e.resolve(pc, info, correct)
}

// ArchReplay evaluates a predictor model and a set of estimators
// against the committed stream and returns one pipeline.ConfStats per
// estimator. The predictor must be freshly constructed (untrained), as
// must the estimators — the same requirement direct simulation imposes.
// JRS, CIR, gMDC-CIR and Distance estimators differing only in threshold
// share one state exactly as in Replay (see thresholdGroup), so
// non-leader instances should be discarded after the call.
//
// Per committed branch, in order: the predictor predicts, every
// estimator observes the fetch (Estimate plus quadrant bookkeeping),
// the predictor trains on the outcome (Resolve, then Recover on a
// misprediction, per the bpred contract), and every estimator resolves.
// The three predictors the experiments sweep get devirtualized loops
// (the PR 4 pattern — interface dispatch on Predict/Resolve dominates
// the model cost); any other Predictor takes the generic path.
func ArchReplay(t *ArchTrace, pred bpred.Predictor, ests []conf.Estimator) []pipeline.ConfStats {
	s := newEvaluator(ests)
	switch pr := pred.(type) {
	case *bpred.Gshare:
		for _, c := range t.chunks {
			for k := 0; k < c.n; k++ {
				pc, outcome := c.pc[k], c.taken(k)
				p, ckpt, info := pr.Predict(pc)
				s.branch(pc, info, p == outcome)
				pr.Resolve(pc, info, outcome)
				if p != outcome {
					pr.Recover(ckpt, pc, outcome)
				}
			}
		}
	case *bpred.McFarling:
		for _, c := range t.chunks {
			for k := 0; k < c.n; k++ {
				pc, outcome := c.pc[k], c.taken(k)
				p, ckpt, info := pr.Predict(pc)
				s.branch(pc, info, p == outcome)
				pr.Resolve(pc, info, outcome)
				if p != outcome {
					pr.Recover(ckpt, pc, outcome)
				}
			}
		}
	case *bpred.SAg:
		for _, c := range t.chunks {
			for k := 0; k < c.n; k++ {
				pc, outcome := c.pc[k], c.taken(k)
				p, ckpt, info := pr.Predict(pc)
				s.branch(pc, info, p == outcome)
				pr.Resolve(pc, info, outcome)
				if p != outcome {
					pr.Recover(ckpt, pc, outcome)
				}
			}
		}
	default:
		for _, c := range t.chunks {
			for k := 0; k < c.n; k++ {
				pc, outcome := c.pc[k], c.taken(k)
				p, ckpt, info := pred.Predict(pc)
				s.branch(pc, info, p == outcome)
				pred.Resolve(pc, info, outcome)
				if p != outcome {
					pred.Recover(ckpt, pc, outcome)
				}
			}
		}
	}
	return s.confs
}

// ArchSites runs a predictor model over the committed stream and
// returns per-branch-site accuracy — the profile the static confidence
// estimator thresholds (profile.FromSites). The predictor must be
// freshly constructed and is consumed by the pass.
func ArchSites(t *ArchTrace, pred bpred.Predictor) map[int64]*pipeline.SiteStats {
	sites := make(map[int64]*pipeline.SiteStats)
	for _, c := range t.chunks {
		for k := 0; k < c.n; k++ {
			pc, outcome := c.pc[k], c.taken(k)
			p, ckpt, info := pred.Predict(pc)
			s := sites[pc]
			if s == nil {
				s = &pipeline.SiteStats{}
				sites[pc] = s
			}
			s.Total++
			if p == outcome {
				s.Correct++
			}
			pred.Resolve(pc, info, outcome)
			if p != outcome {
				pred.Recover(ckpt, pc, outcome)
			}
		}
	}
	return sites
}
