// Package synth generates workloads from a characterization vector and
// ingests external branch traces, turning the fixed eight-benchmark
// suite into a navigable space of scenarios.
//
// The generator half starts from a Profile — branch density, bias
// distribution (taken-probability center and spread), global and local
// history-correlation structure, hard-to-predict fraction, and a
// misprediction-clustering schedule — and deterministically emits an
// isa.Program whose committed branch stream realizes that vector:
//
//   - biased sites draw fresh pseudo-random data each iteration and
//     compare against a per-site threshold, with extreme probabilities
//     lowered to single-instruction constant branches so high branch
//     densities stay reachable;
//   - global sites form a producer/consumer chain: one site injects a
//     fresh pseudo-random outcome per iteration and the others copy the
//     outcome from GlobalDepth branches back, so a global-history
//     predictor can recover them exactly while a per-branch-history
//     predictor cannot;
//   - local sites follow a fixed period-P taken pattern driven by a
//     per-site counter, the classic loop-branch shape per-address
//     history predictors capture;
//   - hard-to-predict sites are pure coin flips, optionally confined to
//     periodic burst windows (ClusterEvery/ClusterBurst) to cluster
//     mispredictions the way the paper's speculation-control analysis
//     assumes.
//
// Register publishes a generated workload through internal/workload
// under the content-addressed name "synth:<profile-hash>", which flows
// into experiments.CellAddress and TraceAddress unchanged — the cell
// cache and the replay trace cache compose with generated workloads
// automatically. Measure runs a program on the
// architectural emulator with a reference gshare predictor and reports
// its realized characterization; PaperTargets pins one checked-in
// profile per paper benchmark to that benchmark's Table 1 band, the
// generator's calibration proof.
//
// The ingestion half (FromTrace) decodes a versioned branch-trace file
// (magic "SPBT": per-site PCs plus a packed outcome stream, written by
// TraceSink from any obs.BranchEvent source, e.g. simtrace
// -record-branches) and registers a workload that replays the recorded
// outcome sequence through per-site branch instructions, making real
// program traces first-class scenarios with typed decode errors and
// fuzz coverage mirroring internal/replay.
package synth
