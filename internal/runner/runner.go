package runner

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"specctrl/internal/obs"
	"specctrl/internal/obs/span"
)

// Spec identifies one independent grid cell. The four name fields form
// the cell's stable identity (Key).
type Spec struct {
	Experiment string // experiment family, e.g. "table2"
	Workload   string // benchmark name, e.g. "gcc"
	Predictor  string // branch predictor name, e.g. "gshare"
	Variant    string // estimator/config discriminator, e.g. "main"
}

// Key returns the stable identity of the spec, used for sharding,
// cross-machine result merging and content addressing.
func (s Spec) Key() string {
	return s.Experiment + "/" + s.Workload + "/" + s.Predictor + "/" + s.Variant
}

// Options configures Run.
type Options struct {
	// Jobs is the worker-pool size. Values <= 1 run serially (a single
	// worker), which is also the reference order for determinism tests.
	Jobs int

	// Shard restricts execution to every Count-th spec (see Shard).
	// Skipped specs come back as the zero value.
	Shard Shard

	// Obs, when non-nil, receives the runner's live metrics.
	Obs *obs.Registry

	// Tracer, when non-nil, records per-cell wait and run spans. The
	// nil Tracer disables tracing at the cost of one nil-check per cell.
	Tracer *span.Tracer

	// SpanParent is the span context cell spans are parented under.
	// When invalid (the zero value) each cell span starts its own trace.
	SpanParent span.Context
}

// cellSecondsBounds buckets specctrl_sim_cell_seconds: cells span
// roughly 1 ms (compress, small grids) to tens of seconds (gcc at full
// trace length).
var cellSecondsBounds = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Run executes every spec owned by opts.Shard on opts.Jobs workers and
// returns one value per input spec, positionally aligned with specs;
// specs outside the shard come back as the zero T. See the package
// comment for the isolation rules cell must follow.
//
// On a cell error Run cancels outstanding work and returns the
// lowest-indexed error among the cells that ran; on context
// cancellation it returns ctx.Err(). Either way it returns no values.
func Run[T any](ctx context.Context, opts Options, specs []Spec,
	cell func(context.Context, Spec) (T, error)) ([]T, error) {
	if err := opts.Shard.Validate(); err != nil {
		return nil, err
	}
	// Shard filter: this machine owns every Count-th spec.
	mine := make([]int, 0, len(specs))
	for i := range specs {
		if opts.Shard.Owns(i) {
			mine = append(mine, i)
		}
	}
	jobs := max(1, min(opts.Jobs, len(mine)))

	var (
		cellsDone *obs.Counter
		depth     *obs.Gauge
		cellHist  *obs.Histogram
	)
	if reg := opts.Obs; reg != nil {
		reg.Gauge("specctrl_runner_workers", nil).SetUint(uint64(jobs))
		cellsDone = reg.Counter("specctrl_runner_cells_total", nil)
		cellHist = reg.Histogram("specctrl_sim_cell_seconds", nil, cellSecondsBounds)
		depth = reg.Gauge("specctrl_runner_queue_depth", nil)
		depth.SetUint(uint64(len(mine)))
	}
	tr, parent := opts.Tracer, opts.SpanParent
	enqueued := time.Now()

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]T, len(specs))
	var (
		next     atomic.Int64 // position in mine of the next unstarted cell
		errMu    sync.Mutex
		errIdx   = -1
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for runCtx.Err() == nil {
				k := int(next.Add(1) - 1)
				if depth != nil {
					depth.SetUint(uint64(max(0, len(mine)-k-1)))
				}
				if k >= len(mine) {
					return
				}
				i := mine[k]
				sp := specs[i]
				cellCtx := runCtx
				var cellSpan *span.Span
				started := time.Now()
				if tr != nil {
					key := sp.Key()
					// Queue-wait phase, backdated to enqueue, on the
					// worker's queue track.
					ws := tr.Child(parent, "wait:"+key,
						span.Int(span.TIDAttr, int64(1000+w+1)),
						span.Str(span.ThreadAttr, "queue "+strconv.Itoa(w)),
						span.Str("key", key))
					ws.Start = enqueued
					ws.EndAt(started)
					// Run phase on the worker's own timeline track; the
					// span rides into the cell so replay/cache layers can
					// hang their phases under it.
					cellSpan = tr.Child(parent, "cell:"+key,
						span.Str("key", key),
						span.Int("worker", int64(w)),
						span.Int("wait_ns", started.Sub(enqueued).Nanoseconds()),
						span.Int(span.TIDAttr, int64(w+1)),
						span.Str(span.ThreadAttr, "worker "+strconv.Itoa(w)))
					cellSpan.Start = started
					cellCtx = span.NewContext(runCtx, cellSpan)
				}
				v, err := cell(cellCtx, sp)
				if cellSpan != nil {
					if err != nil {
						cellSpan.SetAttrs(span.Str("error", err.Error()))
					}
					cellSpan.End()
				}
				if cellHist != nil {
					cellHist.Observe(time.Since(started).Seconds())
					cellsDone.Inc()
				}
				if err != nil {
					errMu.Lock()
					if errIdx < 0 || i < errIdx {
						errIdx, firstErr = i, err
					}
					errMu.Unlock()
					cancel()
					return
				}
				results[i] = v
			}
		}()
	}
	wg.Wait()

	if errIdx >= 0 {
		return nil, fmt.Errorf("runner: cell %s: %w", specs[errIdx].Key(), firstErr)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}
