package replay

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"specctrl/internal/obs"
	"specctrl/internal/pipeline"
)

// fakeRecord returns a record func producing a synthetic trace of the
// given size, counting invocations.
func fakeRecord(calls *atomic.Int64, n int) func() (*Trace, *pipeline.Stats, error) {
	return func() (*Trace, *pipeline.Stats, error) {
		calls.Add(1)
		return recordSynthetic(n), &pipeline.Stats{Committed: uint64(n)}, nil
	}
}

// TestCacheHit: the second Get for an address returns the first's
// result without recording again.
func TestCacheHit(t *testing.T) {
	c := NewCache(0, nil)
	var calls atomic.Int64
	tr1, st1, _, err := c.GetOrRecord("a", fakeRecord(&calls, 100))
	if err != nil {
		t.Fatal(err)
	}
	tr2, st2, _, err := c.GetOrRecord("a", fakeRecord(&calls, 100))
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("recorded %d times, want 1", calls.Load())
	}
	if tr1 != tr2 || st1 != st2 {
		t.Fatal("hit returned different pointers than the recording")
	}
	if c.Len() != 1 || c.Bytes() <= 0 {
		t.Fatalf("Len=%d Bytes=%d after one insert", c.Len(), c.Bytes())
	}
}

// TestCacheSingleflight: concurrent Gets for one address record once;
// everyone gets the same trace.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache(0, nil)
	var calls atomic.Int64
	gate := make(chan struct{})
	record := func() (*Trace, *pipeline.Stats, error) {
		calls.Add(1)
		<-gate // hold the flight open until all goroutines have queued
		return recordSynthetic(50), &pipeline.Stats{}, nil
	}

	const waiters = 8
	var wg sync.WaitGroup
	results := make([]*Trace, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, _, _, err := c.GetOrRecord("addr", record)
			if err != nil {
				t.Error(err)
			}
			results[i] = tr
		}(i)
	}
	// Let the flight's followers pile up, then release the recording.
	for calls.Load() == 0 {
	}
	close(gate)
	wg.Wait()

	if calls.Load() != 1 {
		t.Fatalf("recorded %d times under contention, want 1", calls.Load())
	}
	for i := 1; i < waiters; i++ {
		if results[i] != results[0] {
			t.Fatal("waiters received different traces")
		}
	}
}

// TestCacheRecordError: a failed recording is not cached and does not
// wedge the flight — the next caller retries.
func TestCacheRecordError(t *testing.T) {
	c := NewCache(0, nil)
	boom := errors.New("boom")
	if _, _, _, err := c.GetOrRecord("a", func() (*Trace, *pipeline.Stats, error) {
		return nil, nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the recording error", err)
	}
	if c.Len() != 0 {
		t.Fatal("failed recording was cached")
	}
	var calls atomic.Int64
	if _, _, _, err := c.GetOrRecord("a", fakeRecord(&calls, 10)); err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if calls.Load() != 1 {
		t.Fatal("retry did not re-record")
	}
}

// TestCacheLRUEviction: inserts beyond the byte budget evict the least
// recently used entries, and the metrics see every step.
func TestCacheLRUEviction(t *testing.T) {
	reg := obs.NewRegistry()
	// Budget two synthetic traces (plus stats footprints), not three.
	one := recordSynthetic(5000).Bytes()
	c := NewCache(int64(2*(one+statsFootprint)+one/2), reg)

	var calls atomic.Int64
	for _, addr := range []string{"a", "b"} {
		if _, _, _, err := c.GetOrRecord(addr, fakeRecord(&calls, 5000)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so "b" is the LRU victim when "c" arrives.
	if _, _, _, err := c.GetOrRecord("a", fakeRecord(&calls, 5000)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.GetOrRecord("c", fakeRecord(&calls, 5000)); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d after eviction, want 2", c.Len())
	}

	// "a" and "c" resident, "b" evicted: re-requesting "b" records anew.
	before := calls.Load()
	for _, addr := range []string{"a", "c"} {
		if _, _, _, err := c.GetOrRecord(addr, fakeRecord(&calls, 5000)); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != before {
		t.Fatal("resident entries re-recorded")
	}
	if _, _, _, err := c.GetOrRecord("b", fakeRecord(&calls, 5000)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != before+1 {
		t.Fatal("evicted entry did not re-record")
	}

	if max := c.Bytes(); max > int64(2*(one+statsFootprint)+one/2) {
		t.Fatalf("cache holds %d bytes, over its %d budget", max, 2*(one+statsFootprint)+one/2)
	}

	// The sequence above was: miss a, miss b, hit a, miss c (evict b),
	// hit a, hit c, miss b (evict a) — the counters must agree.
	dump := metricsDump(reg)
	if got := dump["specctrl_trace_records_total"]; got != float64(calls.Load()) {
		t.Errorf("records_total = %v, want %d", got, calls.Load())
	}
	if got := dump["specctrl_trace_hits_total"]; got != 3 {
		t.Errorf("hits_total = %v, want 3", got)
	}
	if got := dump["specctrl_trace_evictions_total"]; got != 2 {
		t.Errorf("evictions_total = %v, want 2", got)
	}
	if got := dump["specctrl_trace_cache_bytes"]; got != float64(c.Bytes()) {
		t.Errorf("cache_bytes gauge = %v, Bytes() = %d", got, c.Bytes())
	}
}

// metricsDump flattens a registry snapshot into name → value (summing
// across label sets; the trace metrics are unlabelled).
func metricsDump(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, m := range reg.Snapshot() {
		out[m.Name] += m.Value
	}
	return out
}

// TestCacheDefaultBudget: a zero budget selects the package default.
func TestCacheDefaultBudget(t *testing.T) {
	c := NewCache(0, nil)
	if c.max != DefaultCacheBytes {
		t.Fatalf("zero budget gave max=%d, want DefaultCacheBytes", c.max)
	}
	if c := NewCache(-5, nil); c.max != DefaultCacheBytes {
		t.Fatal("negative budget did not select the default")
	}
}

// TestCacheManyAddresses smoke-tests churn well past the budget.
func TestCacheManyAddresses(t *testing.T) {
	one := recordSynthetic(1000).Bytes()
	c := NewCache(int64(3*(one+statsFootprint)), nil)
	var calls atomic.Int64
	for i := 0; i < 20; i++ {
		if _, _, _, err := c.GetOrRecord(fmt.Sprint("w", i%7), fakeRecord(&calls, 1000)); err != nil {
			t.Fatal(err)
		}
		if c.Len() > 3 {
			t.Fatalf("cache grew to %d entries over its 3-entry budget", c.Len())
		}
	}
}
