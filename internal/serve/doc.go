// Package serve turns the batch experiment harness into a long-running
// simulation service: simulation-as-a-service over the parallel grid
// runner.
//
// Four layers:
//
//   - A job API over HTTP (see api.go): submit a set of experiments as
//     a job, poll its status, stream per-cell completion events, and
//     fetch the merged results — rendered text per experiment plus the
//     cell dump in the same versioned JSON schema simctrl's -cells-out
//     writes.
//   - A content-addressed result cache (Store): every cell is keyed by
//     the canonical hash of its full spec (experiments.CellAddress), so
//     the same cell requested twice — by one job, by two concurrent
//     jobs, or days apart — simulates exactly once and is served from
//     disk forever after, byte-identical to a fresh simulation. Its
//     rendered tier keeps each experiment's output and cell list under
//     experiments.ExperimentAddress, so a warm job reads its cells and
//     returns the stored table without running the grid or the
//     renderer.
//   - Admission control and backpressure: a bounded job queue sized off
//     the runner pool width. A full queue rejects submissions with
//     429 + Retry-After; a draining server rejects them with 503. Jobs
//     carry a configurable timeout and are cancelled at the next cell
//     boundary. Drain (SIGTERM in cmd/simserved) lets in-flight cells
//     finish and checkpoints every unfinished job's completed cells as
//     a -cells-in-loadable dump.
//   - Wiring into the existing stack: jobs execute on internal/runner
//     through internal/experiments' grid path, preserving byte-identical
//     determinism, and the service publishes queue depth, cache
//     hit/miss, inflight, and latency-histogram metrics through
//     internal/obs on the same mux that serves the API.
package serve
