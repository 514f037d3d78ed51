// Package runner executes experiment grids on a bounded worker pool.
//
// Every experiment in internal/experiments is a grid of independent
// simulations — one cell per workload × predictor × estimator-config
// combination. The runner's job is to execute those cells concurrently
// without changing any observable result.
//
// # The Spec/cell contract
//
// A grid is a []Spec; each Spec names exactly one cell. The cell body
// is the func passed to Run. The contract a cell must honor for the
// runner's determinism guarantee to hold:
//
//   - No shared mutable state. Every pipeline, predictor, estimator,
//     cache, and workload program the cell needs is constructed inside
//     the cell. Cells may close over read-only configuration only.
//   - No run-time randomness. A cell's result is a function of its
//     spec and configuration alone; the only random draws are made
//     inside program builders, from fixed seeds.
//   - No dependence on execution order. A cell may not read another
//     cell's output or any accumulator written by other cells.
//
// # Determinism
//
// Run returns results positionally aligned with the input specs, so the
// caller's assemble step iterates in spec order — the same order the old
// serial loops used — regardless of which worker finished which cell
// first. Identical specs therefore produce byte-identical assembled
// output at -jobs 1 and -jobs N, on any machine.
//
// # Scheduling
//
// All workers share one queue: an atomic index over the shard's cells
// in spec order, from which an idle worker takes the next unstarted
// cell. Cell runtimes vary by an order of magnitude across workloads
// (gcc vs compress); because no cell is bound to a worker in advance, a
// slow cell holds up only the worker running it while the others drain
// the rest of the queue.
//
// # Observability and cancellation
//
// When Options.Obs is set, the runner publishes the cells not yet
// started (specctrl_runner_queue_depth), completed cells
// (specctrl_runner_cells_total), the worker count
// (specctrl_runner_workers), and a wall-time distribution of cell
// runtimes (specctrl_sim_cell_seconds) through the internal/obs
// registry. When Options.Tracer is set, every cell additionally emits
// two spans under Options.SpanParent: a queue-wait span (enqueue to
// dequeue, rendered on a per-worker "queue N" track) and a run span
// named "cell:<key>" carrying worker and wait attributes on the
// worker's own timeline track; the run span rides into the cell via
// span.NewContext, so deeper layers (replay, caching) can attach their
// phases to it. With Tracer nil the whole path costs one nil-check per
// cell and allocates nothing. Cancelling the context stops dispatch at
// the next cell boundary and Run returns ctx.Err(); a caller that must
// keep finished cells records them from inside the cell.
package runner
