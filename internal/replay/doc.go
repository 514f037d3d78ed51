// Package replay records the estimator-visible branch event stream of
// one pipeline simulation and re-evaluates confidence estimators
// against the recording without re-running the pipeline.
//
// The paper's estimators are passive observers: the simulator calls
// Estimate for every fetched conditional branch (in fetch order) and
// Resolve for every committed branch (in program order, with the
// fetch-time pc/Info/correctness — see the pipeline package's event
// ordering contract). Estimators never influence fetch, timing, or
// prediction, so for a fixed (workload, predictor, pipeline
// configuration) the event stream is identical no matter which
// estimators are attached. Recording that stream once therefore lets
// any number of estimator configurations be evaluated afterwards, in
// parallel, at the cost of a table lookup per event instead of a full
// per-cycle simulation — the standard trace-driven methodology for
// predictor design-space sweeps.
//
// A Trace stores the stream as fixed-size chunks of tokens. A token is
// either a fetch event — carrying the branch pc, the full bpred.Info
// the predictor produced, whether the prediction was correct, and
// whether the branch was on the committed path — or a payload-free
// resolve event. Resolves need no payload because the simulator
// resolves committed branches in fetch order and passes Resolve the
// values captured at fetch. Fetch payloads are columnar (one slice per
// field) for sequential-scan locality; the fetch/resolve interleaving
// is a per-chunk bitset. Every column is exactly sized, and a chunk
// keeps in memory only what its tokens do not already determine (see
// compact.go): pcs as 1-byte indices into a per-chunk dictionary,
// histories not at all when the predictor's history rule — speculative
// global history for gshare and McFarling, per-pc local history for
// SAg — replayed over the chunk's own tokens reproduces them, and C1
// in the flag byte, so a counter column exists only for a nonzero C2
// or Meta. The one routine that builds this form, for the recorder and
// for Decode alike, checks each column it would drop by rebuilding it
// as readers do, and keeps it explicit (as 16-bit low halves, plus high
// halves only when some value needs them) otherwise. Suite recordings
// retain about 2.2 bytes per fetched branch (3.2 on McFarling).
//
// Replay walks each chunk once, a window of tokens at a time, building
// a transient view: the window's fetch rows with their rebuilt
// bpred.Info, the committed fetch row each resolve token pairs with
// (rows still unresolved carry over to the next window), and how many
// resolves precede each fetch row. Every dispatch unit — one threshold
// group, or one solo estimator — then runs its own typed loop over the
// view, training on resolves and writing each fetch row's split: how
// many of its members report high confidence. Threshold groups share
// one estimator state across a sweep (JRS, CIR, gMDC-CIR and Distance
// state does not depend on the threshold) and fold statistics as split
// histograms: per fetch, a count by split and correct/committed; per
// committed branch, a closed mis-estimation run for each member that
// mis-estimated — the low-confidence suffix when the prediction was
// correct, the high-confidence prefix when it was not. The quadrants
// are prefix sums of the split counts, and the mis-estimation
// histogram is rebuilt from the run lengths (clamped at 63, with an
// overflow sum for the clamped bucket) plus each member's open tail
// run.
//
// Exactness: Replay reproduces pipeline.Stats.Confidence — the
// per-estimator quadrants and mis-estimation histogram — bit for bit,
// because it replays the same Estimate/Resolve call sequence with the
// same arguments and derives the same statistics the simulator's
// per-event updates accumulate (asserted against direct simulation and
// against an event-major oracle in this package, in
// internal/experiments, and end to end by the results_full.txt
// byte-identity gate in scripts/check.sh).
//
// The trace carries no timing and no committed-only shortcut: wrong-path
// fetches are in the stream, and each committed branch resolves where
// the simulator resolved it, so replayed statistics are the pipeline's,
// not a trace-driven approximation of them.
//
// Traces have a binary codec (magic "SPRT"), the file format simtrace
// -record writes and -summarize reads. Encode rebuilds the full columns
// from the compact form, so the file layout does not depend on it. Cache keeps recordings in a
// memo.Cache: one recording per address however many callers want it
// at once, LRU-evicted by bytes.
package replay
