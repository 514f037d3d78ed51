package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"specctrl/internal/conf"
	"specctrl/internal/obs/span"
	"specctrl/internal/pipeline"
	"specctrl/internal/runner"
	"specctrl/internal/workload"
)

// CellResult is the serializable output of one grid cell: the pipeline
// statistics of the cell's simulation plus any experiment-specific
// scalars that are computed from per-run state too large or too
// transient to ship (for example boost's per-k group counts, which are
// derived from the event log and recorded here so the log itself never
// leaves the cell).
//
// CellResult must round-trip exactly through JSON — uint64 and float64
// do in Go — because sharded sweeps dump cells to disk and re-assemble
// them on another machine; assembly from decoded cells must be
// byte-identical to assembly from in-memory ones.
//
// A CellResult returned by a CellCache may be shared — the same Stats
// pointer and Extra map handed to many callers, jobs and experiments —
// so it must never be mutated after it leaves its cell. Assembly code
// that needs a modified Stats copies it first (see replayStats).
type CellResult struct {
	Stats *pipeline.Stats    `json:"stats,omitempty"`
	Extra map[string]float64 `json:"extra,omitempty"`
}

// CellFunc is an experiment's per-cell body. It must follow the
// isolation rules in the runner package comment: build every pipeline,
// predictor, estimator and workload program inside the cell, draw no
// random numbers at run time, and never read other cells' output.
type CellFunc func(ctx context.Context, p Params, spec runner.Spec) (CellResult, error)

// ErrShardOnly is returned by experiment drivers when Params.Shard is
// active: this machine computed and recorded its shard of the grid, but
// the full grid is not present, so there is no assembled result to
// render. Merge the shards' recorded cells (simctrl -cells-in) to get
// the rendered tables.
var ErrShardOnly = errors.New("experiments: shard run recorded its cells; merge shards to assemble results")

// CellStore accumulates computed cell results keyed by spec key. It is
// safe for concurrent use by runner workers.
type CellStore struct {
	mu sync.Mutex
	m  map[string]CellResult
}

// NewCellStore returns an empty store.
func NewCellStore() *CellStore { return &CellStore{m: make(map[string]CellResult)} }

// Put records one cell result.
func (s *CellStore) Put(key string, c CellResult) {
	s.mu.Lock()
	s.m[key] = c
	s.mu.Unlock()
}

// Len reports the number of recorded cells.
func (s *CellStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// CellsVersion is the schema version of cell-dump JSON files
// (-cells-out / -cells-in, the serve API's /cells responses, and drain
// checkpoints). Bump it when CellResult's wire shape changes
// incompatibly; decoders reject any other version with
// UnsupportedCellVersionError rather than misparsing the payload.
const CellsVersion = 1

// UnsupportedCellVersionError reports a cell file whose version is not
// CellsVersion (typically written by a newer build).
type UnsupportedCellVersionError struct{ Version int }

func (e *UnsupportedCellVersionError) Error() string {
	return fmt.Sprintf("experiments: unsupported cell-file version %d (this build reads version %d)",
		e.Version, CellsVersion)
}

// cellFile is the on-disk format for sharded cell dumps.
type cellFile struct {
	Version int                   `json:"version"`
	Cells   map[string]CellResult `json:"cells"`
}

// MarshalJSON encodes the store as a versioned cell file. Map keys are
// sorted by encoding/json, so the dump is deterministic.
func (s *CellStore) MarshalJSON() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return json.Marshal(cellFile{Version: CellsVersion, Cells: s.m})
}

// UnmarshalCells decodes a cell file produced by CellStore.MarshalJSON.
// The version field is checked before the cells payload is decoded, so
// a future-version file fails with UnsupportedCellVersionError instead
// of a confusing field-level JSON error.
func UnmarshalCells(data []byte) (map[string]CellResult, error) {
	var probe struct {
		Version int             `json:"version"`
		Cells   json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("experiments: bad cell file: %w", err)
	}
	if probe.Version != CellsVersion {
		return nil, &UnsupportedCellVersionError{Version: probe.Version}
	}
	cells := map[string]CellResult{}
	if len(probe.Cells) > 0 {
		if err := json.Unmarshal(probe.Cells, &cells); err != nil {
			return nil, fmt.Errorf("experiments: bad cell file: %w", err)
		}
	}
	return cells, nil
}

// CellCache memoizes cell results across grid runs, keyed by the
// content address Params.CellAddress assigns to each cell. runGrid
// consults it (after Params.Cells) for every cell; an implementation
// must call compute at most once per address across all concurrent
// callers and return exactly what compute returned — because CellResult
// round-trips exactly through JSON, a cached cell is indistinguishable
// from a freshly simulated one. An implementation may hand the same
// value to every caller of an address, across jobs and experiments;
// callers treat it as immutable (see CellResult). internal/serve
// provides the two-tier implementation: a bounded in-memory tier of
// shared decoded results in front of the on-disk JSON tier, with
// singleflight deduplication across both.
type CellCache interface {
	GetOrCompute(ctx context.Context, addr string, spec runner.Spec,
		compute func(context.Context) (CellResult, error)) (CellResult, error)
}

// runGrid executes one experiment grid: every spec becomes one cell
// execution on the worker pool (Params.Jobs wide), and the returned
// slice is positionally aligned with specs so assembly iterates in the
// same order the old serial loops used — that alignment, plus cell
// isolation, is the determinism guarantee.
//
// Cells whose key is present in Params.Cells are taken from there
// instead of being simulated (the cross-machine merge path). All
// computed or reused cells are recorded into Params.Record when set.
// When Params.Shard is active the grid returns ErrShardOnly after
// recording this shard's cells.
func (p Params) runGrid(specs []runner.Spec, cell CellFunc) ([]CellResult, error) {
	ctx := p.ctx()
	// A traced grid with no caller-supplied parent opens its own root,
	// so a bare library call still yields one coherent trace. p is a
	// value, so rewriting SpanParent here reaches only this grid's cells.
	if p.Tracer != nil && !p.SpanParent.Valid() && len(specs) > 0 {
		root := p.Tracer.Root("grid:" + specs[0].Experiment)
		p.SpanParent = root.Context()
		defer root.End()
	}
	opts := runner.Options{
		Jobs:       p.Jobs,
		Shard:      p.Shard,
		Obs:        p.Obs,
		Tracer:     p.Tracer,
		SpanParent: p.SpanParent,
	}
	cells, err := runner.Run(ctx, opts, specs, func(ctx context.Context, sp runner.Spec) (CellResult, error) {
		key := sp.Key()
		c, ok := p.Cells[key]
		source := "cells-in"
		if !ok {
			// Reparent the cell body's spans (record/replay/trace
			// phases) under this cell's run span, and name its direct
			// runs by the cell's key.
			pc := p
			pc.cellKey = key
			if cs := span.FromContext(ctx); cs != nil {
				pc.SpanParent = cs.Context()
			}
			computed := false
			compute := func(ctx context.Context) (CellResult, error) {
				computed = true
				return cell(ctx, pc, sp)
			}
			var err error
			if p.Cache != nil {
				c, err = p.Cache.GetOrCompute(ctx, p.CellAddress(sp), sp, compute)
			} else {
				c, err = compute(ctx)
			}
			if err != nil {
				return CellResult{}, err
			}
			if computed {
				source = "compute"
			} else {
				source = "cache"
			}
		}
		if cs := span.FromContext(ctx); cs != nil {
			cs.SetAttrs(span.Str("source", source))
			if c.Stats != nil {
				cs.SetAttrs(span.Int("cycles", int64(c.Stats.Cycles)))
			}
		}
		if p.Record != nil {
			p.Record.Put(key, c)
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	if p.Shard.Active() {
		return nil, ErrShardOnly
	}
	return cells, nil
}

// ctx returns Params.Ctx, or the background context when it is nil.
func (p Params) ctx() context.Context {
	if p.Ctx != nil {
		return p.Ctx
	}
	return context.Background()
}

// predictorByName resolves one of the paper's standard predictor
// configurations by spec name.
func predictorByName(name string) (PredictorSpec, error) {
	for _, s := range AllPredictors() {
		if s.Name == name {
			return s, nil
		}
	}
	return PredictorSpec{}, fmt.Errorf("experiments: unknown predictor %q", name)
}

// suiteNames returns the suite benchmarks' names in suite order.
func suiteNames() []string {
	ws := suite()
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	return names
}

// namedSpecs returns one spec per named workload, in the given order.
func namedSpecs(experiment string, names []string, spec PredictorSpec, variant string) []runner.Spec {
	specs := make([]runner.Spec, len(names))
	for i, name := range names {
		specs[i] = runner.Spec{
			Experiment: experiment,
			Workload:   name,
			Predictor:  spec.Name,
			Variant:    variant,
		}
	}
	return specs
}

// suiteSpecs returns one spec per suite benchmark, in suite order.
func suiteSpecs(experiment string, spec PredictorSpec, variant string) []runner.Spec {
	return namedSpecs(experiment, suiteNames(), spec, variant)
}

// estimatorsFunc builds one estimator cell's estimator list from the
// cell's workload, predictor and spec variant: fresh instances, in the
// order assembly reads Stats.Confidence. It runs inside the cell, so it
// may fold a profile (static, tuned) or run a profiling simulation
// (xinput's cross input).
type estimatorsFunc func(p Params, w workload.Workload, spec PredictorSpec, variant string) ([]conf.Estimator, error)

// estimatorGrid runs the estimator-sweep grid shape: one cell per spec,
// which resolves the spec's workload and predictor, builds its
// estimators with ests and evaluates them through evalEstimators —
// trace replay or direct simulation, whichever replayActive selects.
// The cells, and so their keys, are the same in either mode. Statistics
// come back positionally aligned with specs.
func (p Params) estimatorGrid(specs []runner.Spec, ests estimatorsFunc) ([]*pipeline.Stats, error) {
	cells, err := p.runGrid(specs, func(_ context.Context, p Params, sp runner.Spec) (CellResult, error) {
		w, err := workload.ByName(sp.Workload)
		if err != nil {
			return CellResult{}, err
		}
		spec, err := predictorByName(sp.Predictor)
		if err != nil {
			return CellResult{}, err
		}
		es, err := ests(p, w, spec, sp.Variant)
		if err != nil {
			return CellResult{}, err
		}
		st, err := p.evalEstimators(w, spec, es...)
		if err != nil {
			return CellResult{}, fmt.Errorf("%s: %w", sp.Key(), err)
		}
		return CellResult{Stats: st}, nil
	})
	if err != nil {
		return nil, err
	}
	stats := make([]*pipeline.Stats, len(cells))
	for i := range cells {
		stats[i] = cells[i].Stats
	}
	return stats, nil
}

// noEstimators is the estimator builder of cells that read only the
// run's own statistics.
func noEstimators(Params, workload.Workload, PredictorSpec, string) ([]conf.Estimator, error) {
	return nil, nil
}

// suiteStats runs the most common grid shape — one estimator cell per
// suite benchmark on one predictor — and returns the statistics in
// suite order. ests builds the cell's estimator list (see
// estimatorsFunc).
func (p Params) suiteStats(experiment string, spec PredictorSpec, variant string,
	ests func(p Params, w workload.Workload) ([]conf.Estimator, error)) ([]*pipeline.Stats, error) {
	return p.estimatorGrid(suiteSpecs(experiment, spec, variant),
		func(p Params, w workload.Workload, _ PredictorSpec, _ string) ([]conf.Estimator, error) {
			return ests(p, w)
		})
}
