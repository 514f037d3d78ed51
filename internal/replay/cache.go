package replay

import (
	"context"

	"specctrl/internal/memo"
	"specctrl/internal/obs"
	"specctrl/internal/pipeline"
)

// DefaultCacheBytes is the default retained-bytes budget for a trace
// Cache. At the default experiment scale a suite trace is about a
// megabyte in its compact form (~2.2 B per fetched branch, ~3.2 on
// McFarling), and the 24 suite (workload, predictor) pairs the full
// experiment grid records charge ~28 MiB, so 256 MiB holds them all
// with room to spare while still bounding a long-running daemon.
const DefaultCacheBytes = 256 << 20

// Cache is an in-memory, content-addressed cache of recorded traces
// (and the base Stats of the run that recorded them), bounded by
// retained bytes with least-recently-used eviction. It is a memo.Cache:
// concurrent GetOrRecord calls for one address record once and share
// the outcome, and a failed recording is not cached.
//
// Eviction only ever costs time, never correctness: a caller that
// misses re-records the trace from the deterministic simulation, so a
// budget smaller than the working set degrades to direct-simulation
// speed rather than misbehaving.
type Cache struct {
	m             *memo.Cache[recording]
	records, hits *obs.Counter
}

// recording is one cached trace and the base stats of its run.
type recording struct {
	trace *Trace
	stats *pipeline.Stats
}

// NewCache returns a cache holding at most maxBytes of trace data
// (DefaultCacheBytes when maxBytes <= 0). When reg is non-nil the cache
// publishes specctrl_trace_{records,hits,evictions}_total and the
// specctrl_trace_cache_bytes gauge.
func NewCache(maxBytes int64, reg *obs.Registry) *Cache {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Cache{
		m: memo.New[recording](cacheBudget(maxBytes), reg.Gauge("specctrl_trace_cache_bytes", nil),
			reg.Counter("specctrl_trace_evictions_total", nil)),
		records: reg.Counter("specctrl_trace_records_total", nil),
		hits:    reg.Counter("specctrl_trace_hits_total", nil),
	}
}

// cacheBudget is the budget NewCache applies: maxBytes, or
// DefaultCacheBytes when maxBytes <= 0.
func cacheBudget(maxBytes int64) int64 {
	if maxBytes <= 0 {
		return DefaultCacheBytes
	}
	return maxBytes
}

// GetOrRecord returns the trace cached under addr, running record to
// produce it on a miss, plus how the request was satisfied: a resident
// hit, a fresh recording (memo.Compute), or a wait on another caller's
// in-flight recording. A wait returns ctx.Err() once ctx is done; the
// recording it waited on still completes and is cached. The returned
// Trace and Stats are shared and must be treated as immutable (Replay
// never mutates its trace; the stats are the base run's and callers
// clone what they modify).
func (c *Cache) GetOrRecord(ctx context.Context, addr string, record func() (*Trace, *pipeline.Stats, error)) (*Trace, *pipeline.Stats, memo.Outcome, error) {
	r, out, err := c.m.GetOrCompute(ctx, addr, func() (recording, int64, error) {
		t, st, err := record()
		if err != nil {
			return recording{}, 0, err
		}
		return recording{t, st}, int64(t.Bytes()) + statsFootprint, nil
	})
	if err != nil {
		return nil, nil, out, err
	}
	if out == memo.Compute {
		c.records.Inc()
	} else {
		c.hits.Inc()
	}
	return r.trace, r.stats, out, nil
}

// statsFootprint approximates the retained size of one pipeline.Stats
// (fixed-size histograms and quadrant counters) for budget accounting.
const statsFootprint = 4096
