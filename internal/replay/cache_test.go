package replay

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"specctrl/internal/memo"
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
// result without recording again, and the metrics charge the trace
// its bytes plus the stats footprint.
func TestCacheHit(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCache(0, reg)
	var calls atomic.Int64
	tr1, st1, out1, err := c.GetOrRecord(context.Background(), "a", fakeRecord(&calls, 100))
	if err != nil {
		t.Fatal(err)
	}
	tr2, st2, out2, err := c.GetOrRecord(context.Background(), "a", fakeRecord(&calls, 100))
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 || out1 != memo.Compute || out2 != memo.Hit {
		t.Fatalf("recorded %d times with outcomes %q, %q; want 1, compute, hit", calls.Load(), out1, out2)
	}
	if tr1 != tr2 || st1 != st2 {
		t.Fatal("hit returned different pointers than the recording")
	}
	dump := metricsDump(reg)
	if dump["specctrl_trace_records_total"] != 1 || dump["specctrl_trace_hits_total"] != 1 {
		t.Errorf("records/hits = %v/%v, want 1/1", dump["specctrl_trace_records_total"], dump["specctrl_trace_hits_total"])
	}
	if got, want := dump["specctrl_trace_cache_bytes"], float64(tr1.Bytes()+statsFootprint); got != want {
		t.Errorf("cache_bytes = %v, want %v", got, want)
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
			tr, _, _, err := c.GetOrRecord(context.Background(), "addr", record)
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

// TestCacheWaiterCancel: a caller waiting on another caller's
// recording returns its context's error when cancelled, without
// recording; the recording it waited on completes and is cached, so a
// later call hits.
func TestCacheWaiterCancel(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCache(0, reg)
	started := make(chan struct{})
	release := make(chan struct{})
	leader := make(chan error)
	go func() {
		_, _, _, err := c.GetOrRecord(context.Background(), "a", func() (*Trace, *pipeline.Stats, error) {
			close(started)
			<-release
			return recordSynthetic(50), &pipeline.Stats{}, nil
		})
		leader <- err
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	if _, _, out, err := c.GetOrRecord(ctx, "a", fakeRecord(&calls, 50)); !errors.Is(err, context.Canceled) || out != memo.Wait {
		t.Errorf("cancelled waiter got %q %v, want wait context.Canceled", out, err)
	}
	close(release)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	if _, _, out, err := c.GetOrRecord(context.Background(), "a", fakeRecord(&calls, 50)); err != nil || out != memo.Hit {
		t.Errorf("after the recording: %q %v, want hit", out, err)
	}
	if calls.Load() != 0 {
		t.Errorf("recorded %d more times, want 0", calls.Load())
	}
	dump := metricsDump(reg)
	if dump["specctrl_trace_records_total"] != 1 || dump["specctrl_trace_hits_total"] != 1 {
		t.Errorf("records/hits = %v/%v, want 1/1 (a cancelled wait counts as neither)",
			dump["specctrl_trace_records_total"], dump["specctrl_trace_hits_total"])
	}
}

// TestCacheRecordError: a failed recording is not cached and does not
// wedge the flight — the next caller retries.
func TestCacheRecordError(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCache(0, reg)
	boom := errors.New("boom")
	if _, _, _, err := c.GetOrRecord(context.Background(), "a", func() (*Trace, *pipeline.Stats, error) {
		return nil, nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the recording error", err)
	}
	if dump := metricsDump(reg); dump["specctrl_trace_records_total"] != 0 || dump["specctrl_trace_cache_bytes"] != 0 {
		t.Fatal("failed recording was cached")
	}
	var calls atomic.Int64
	if _, _, _, err := c.GetOrRecord(context.Background(), "a", fakeRecord(&calls, 10)); err != nil {
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
	get := func(addr string) {
		t.Helper()
		if _, _, _, err := c.GetOrRecord(context.Background(), addr, fakeRecord(&calls, 5000)); err != nil {
			t.Fatal(err)
		}
	}
	get("a")
	get("b")
	get("a") // touch "a" so "b" is the LRU victim when "c" arrives
	get("c")

	// "a" and "c" resident, "b" evicted: re-requesting "b" records anew.
	before := calls.Load()
	get("a")
	get("c")
	if calls.Load() != before {
		t.Fatal("resident entries re-recorded")
	}
	get("b")
	if calls.Load() != before+1 {
		t.Fatal("evicted entry did not re-record")
	}

	// The sequence above was: miss a, miss b, hit a, miss c (evict b),
	// hit a, hit c, miss b (evict a) — the counters must agree, and
	// the two resident traces are all the gauge holds.
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
	if got := dump["specctrl_trace_cache_bytes"]; got != float64(2*(one+statsFootprint)) {
		t.Errorf("cache_bytes gauge = %v, want two traces' %d", got, 2*(one+statsFootprint))
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

// TestCacheDefaultBudget: a zero or negative budget selects exactly
// the package default, which holds a trace (a budget passed through
// as-is would evict every recording at once).
func TestCacheDefaultBudget(t *testing.T) {
	if got := cacheBudget(12345); got != 12345 {
		t.Errorf("cacheBudget(12345) = %d, want 12345", got)
	}
	for _, budget := range []int64{0, -5} {
		if got := cacheBudget(budget); got != DefaultCacheBytes {
			t.Errorf("cacheBudget(%d) = %d, want DefaultCacheBytes %d", budget, got, DefaultCacheBytes)
		}
		reg := obs.NewRegistry()
		c := NewCache(budget, reg)
		var calls atomic.Int64
		for i := 0; i < 2; i++ {
			if _, _, _, err := c.GetOrRecord(context.Background(), "a", fakeRecord(&calls, 1000)); err != nil {
				t.Fatal(err)
			}
		}
		if calls.Load() != 1 || metricsDump(reg)["specctrl_trace_evictions_total"] != 0 {
			t.Errorf("budget %d: recorded %d times, want 1 with no eviction", budget, calls.Load())
		}
	}
}

// TestCacheManyAddresses smoke-tests churn well past the budget.
func TestCacheManyAddresses(t *testing.T) {
	reg := obs.NewRegistry()
	one := recordSynthetic(1000).Bytes()
	budget := int64(3 * (one + statsFootprint))
	c := NewCache(budget, reg)
	var calls atomic.Int64
	for i := 0; i < 20; i++ {
		if _, _, _, err := c.GetOrRecord(context.Background(), fmt.Sprint("w", i%7), fakeRecord(&calls, 1000)); err != nil {
			t.Fatal(err)
		}
		if b := metricsDump(reg)["specctrl_trace_cache_bytes"]; b > float64(budget) {
			t.Fatalf("cache holds %v bytes over its 3-entry budget %d", b, budget)
		}
	}
}
