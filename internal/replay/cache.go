package replay

import (
	"container/list"
	"sync"

	"specctrl/internal/obs"
	"specctrl/internal/pipeline"
)

// DefaultCacheBytes is the default retained-bytes budget for a trace
// Cache. At the default experiment scale a suite trace is a few
// megabytes (~18 B per fetched branch), so 256 MiB comfortably holds
// every (workload, predictor) pair the full experiment grid records
// while still bounding a long-running daemon.
const DefaultCacheBytes = 256 << 20

// Cache is an in-memory, content-addressed cache of recorded traces
// (and the base Stats of the run that recorded them), bounded by
// retained bytes with least-recently-used eviction.
//
// Recording is deduplicated singleflight-style (the same discipline as
// serve.Store and the experiments progCache): concurrent GetOrRecord
// calls for one address run the record function exactly once, and every
// waiter shares the outcome. Errors are not cached; the next call
// retries.
//
// Eviction only ever costs time, never correctness: a caller that
// misses re-records the trace from the deterministic simulation, so a
// budget smaller than the working set degrades to direct-simulation
// speed rather than misbehaving.
type Cache struct {
	mu      sync.Mutex
	max     int64
	bytes   int64
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	flights map[string]*traceFlight

	records, hits, evictions *obs.Counter
	gauge                    *obs.Gauge
}

// cacheEntry is one resident trace; the lru list owns these.
type cacheEntry struct {
	addr  string
	trace *Trace
	stats *pipeline.Stats
	bytes int64
}

// traceFlight is one in-progress recording; followers wait on done.
type traceFlight struct {
	done  chan struct{}
	trace *Trace
	stats *pipeline.Stats
	err   error
}

// NewCache returns a cache holding at most maxBytes of trace data
// (DefaultCacheBytes when maxBytes <= 0). When reg is non-nil the cache
// publishes specctrl_trace_{records,hits,evictions}_total and the
// specctrl_trace_cache_bytes gauge.
func NewCache(maxBytes int64, reg *obs.Registry) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	c := &Cache{
		max:     maxBytes,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
		flights: make(map[string]*traceFlight),
	}
	if reg != nil {
		c.records = reg.Counter("specctrl_trace_records_total", nil)
		c.hits = reg.Counter("specctrl_trace_hits_total", nil)
		c.evictions = reg.Counter("specctrl_trace_evictions_total", nil)
		c.gauge = reg.Gauge("specctrl_trace_cache_bytes", nil)
	}
	return c
}

// Bytes returns the currently retained byte count.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Len returns the number of resident traces.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Outcome classifies how GetOrRecord satisfied a request, for
// tracing and reporting.
type Outcome string

const (
	// OutcomeHit: the trace was resident in the cache.
	OutcomeHit Outcome = "hit"
	// OutcomeRecord: this call ran the record function.
	OutcomeRecord Outcome = "record"
	// OutcomeWait: another caller was already recording; this call
	// waited for that flight and shared its result.
	OutcomeWait Outcome = "wait"
)

// GetOrRecord returns the trace cached under addr, running record to
// produce it on a miss, plus a report of how the request was
// satisfied: a resident hit, a fresh recording, or a wait on another
// caller's in-flight recording. The returned Trace and Stats are shared
// and must be treated as immutable (Replay never mutates its trace; the
// stats are the base run's and callers clone what they modify).
func (c *Cache) GetOrRecord(addr string, record func() (*Trace, *pipeline.Stats, error)) (*Trace, *pipeline.Stats, Outcome, error) {
	c.mu.Lock()
	if el, ok := c.entries[addr]; ok {
		c.lru.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.mu.Unlock()
		if c.hits != nil {
			c.hits.Inc()
		}
		return e.trace, e.stats, OutcomeHit, nil
	}
	if f, ok := c.flights[addr]; ok {
		c.mu.Unlock()
		<-f.done
		if f.err == nil && c.hits != nil {
			c.hits.Inc()
		}
		return f.trace, f.stats, OutcomeWait, f.err
	}
	f := &traceFlight{done: make(chan struct{})}
	c.flights[addr] = f
	c.mu.Unlock()

	f.trace, f.stats, f.err = record()

	c.mu.Lock()
	delete(c.flights, addr)
	if f.err == nil {
		c.insertLocked(addr, f.trace, f.stats)
	}
	c.mu.Unlock()
	close(f.done)
	if f.err == nil && c.records != nil {
		c.records.Inc()
	}
	return f.trace, f.stats, OutcomeRecord, f.err
}

// insertLocked adds an entry and evicts from the LRU tail until the
// budget holds again. A trace larger than the whole budget is evicted
// immediately after insertion — the caller already holds the returned
// pointers, so the only cost is that the next request re-records.
func (c *Cache) insertLocked(addr string, t *Trace, st *pipeline.Stats) {
	e := &cacheEntry{addr: addr, trace: t, stats: st, bytes: int64(t.Bytes()) + statsFootprint}
	c.entries[addr] = c.lru.PushFront(e)
	c.bytes += e.bytes
	for c.bytes > c.max {
		tail := c.lru.Back()
		if tail == nil {
			break
		}
		victim := c.lru.Remove(tail).(*cacheEntry)
		delete(c.entries, victim.addr)
		c.bytes -= victim.bytes
		if c.evictions != nil {
			c.evictions.Inc()
		}
	}
	if c.gauge != nil {
		c.gauge.SetUint(uint64(c.bytes))
	}
}

// statsFootprint approximates the retained size of one pipeline.Stats
// (fixed-size histograms and quadrant counters) for budget accounting.
const statsFootprint = 4096
