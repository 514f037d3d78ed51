package memo

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"specctrl/internal/obs"
)

// value returns a compute func yielding v charged size bytes and
// counting its calls.
func value(calls *atomic.Int64, v int, size int64) func() (int, int64, error) {
	return func() (int, int64, error) {
		calls.Add(1)
		return v, size, nil
	}
}

// resident reports whether key is resident, without touching its LRU
// position.
func (c *Cache[V]) resident(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// TestSingleflight: callers of a key whose computation is running run
// no computation of their own and share its value; exactly one caller
// reports Compute. A later call is a Hit.
func TestSingleflight(t *testing.T) {
	c := New[int](1<<20, nil, nil)
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	compute := func() (int, int64, error) {
		calls.Add(1)
		close(started)
		<-release
		return 7, 1, nil
	}
	const callers = 8
	var wg sync.WaitGroup
	vals := make([]int, callers)
	outs := make([]Outcome, callers)
	wg.Add(1)
	go func() {
		defer wg.Done()
		vals[0], outs[0], _ = c.GetOrCompute(context.Background(), "k", compute)
	}()
	<-started // the leader is inside compute; everyone else must join it
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			vals[i], outs[i], err = c.GetOrCompute(context.Background(), "k", compute)
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	close(release)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1", n)
	}
	if outs[0] != Compute {
		t.Errorf("leader outcome %q, want compute", outs[0])
	}
	for i := range vals {
		if vals[i] != 7 {
			t.Errorf("caller %d got %d", i, vals[i])
		}
		// A follower scheduled only after the flight landed is a hit.
		if i > 0 && outs[i] != Wait && outs[i] != Hit {
			t.Errorf("follower %d outcome %q, want wait or hit", i, outs[i])
		}
	}
	if v, out, err := c.GetOrCompute(context.Background(), "k", compute); v != 7 || out != Hit || err != nil {
		t.Errorf("after the flight: %d %q %v, want 7 hit", v, out, err)
	}
}

// TestErrorNotRemembered: a failed computation stores nothing and
// charges nothing, and the next caller computes again.
func TestErrorNotRemembered(t *testing.T) {
	reg := obs.NewRegistry()
	c := New[int](100, reg.Gauge("bytes", nil), nil)
	boom := errors.New("boom")
	_, out, err := c.GetOrCompute(context.Background(), "k", func() (int, int64, error) {
		return 0, 10, boom
	})
	if !errors.Is(err, boom) || out != Compute {
		t.Fatalf("got %q %v, want compute boom", out, err)
	}
	if c.resident("k") || c.bytes != 0 || len(c.flights) != 0 {
		t.Fatalf("failed compute left state: resident=%v bytes=%d flights=%d",
			c.resident("k"), c.bytes, len(c.flights))
	}
	var calls atomic.Int64
	v, out, err := c.GetOrCompute(context.Background(), "k", value(&calls, 3, 10))
	if err != nil || v != 3 || out != Compute || calls.Load() != 1 {
		t.Fatalf("retry: %d %q %v after %d computes, want 3 compute", v, out, err, calls.Load())
	}
	if g := reg.Gauge("bytes", nil).Value(); g != 10 {
		t.Errorf("bytes gauge = %v, want 10", g)
	}
}

// TestWaiterCancel: a waiter whose context is done returns its
// context's error at once; the running computation completes for its
// caller and is stored, so a later call hits.
func TestWaiterCancel(t *testing.T) {
	c := New[int](100, nil, nil)
	started := make(chan struct{})
	release := make(chan struct{})
	leader := make(chan int)
	go func() {
		v, _, _ := c.GetOrCompute(context.Background(), "k", func() (int, int64, error) {
			close(started)
			<-release
			return 5, 1, nil
		})
		leader <- v
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, out, err := c.GetOrCompute(ctx, "k", func() (int, int64, error) {
		t.Error("a waiter computed while the flight was running")
		return 0, 0, nil
	})
	if !errors.Is(err, context.Canceled) || out != Wait {
		t.Errorf("cancelled waiter got %q %v, want wait context.Canceled", out, err)
	}
	close(release)
	if v := <-leader; v != 5 {
		t.Errorf("leader got %d, want 5", v)
	}
	if v, out, err := c.GetOrCompute(context.Background(), "k", nil); v != 5 || out != Hit || err != nil {
		t.Errorf("after the flight: %d %q %v, want 5 hit", v, out, err)
	}
}

// TestLRUOrder: a hit makes its entry most recently used, eviction
// takes the least recently used first, and the byte gauge and eviction
// counter follow every step.
func TestLRUOrder(t *testing.T) {
	reg := obs.NewRegistry()
	gauge, evictions := reg.Gauge("bytes", nil), reg.Counter("evictions", nil)
	c := New[int](25, gauge, evictions) // room for two entries of 10
	var calls atomic.Int64
	get := func(key string) Outcome {
		t.Helper()
		_, out, err := c.GetOrCompute(context.Background(), key, value(&calls, 1, 10))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	get("a")
	get("b")
	if get("a") != Hit { // a is now most recently used
		t.Fatal("a missed while within budget")
	}
	get("c") // evicts b
	if !c.resident("a") || c.resident("b") || !c.resident("c") {
		t.Fatalf("resident a/b/c = %v/%v/%v, want true/false/true",
			c.resident("a"), c.resident("b"), c.resident("c"))
	}
	if g, n := gauge.Value(), evictions.Value(); g != 20 || n != 1 {
		t.Errorf("gauge %v evictions %d, want 20 and 1", g, n)
	}
	if get("b") != Compute { // evicts a
		t.Error("evicted b did not recompute")
	}
	if c.resident("a") || calls.Load() != 4 {
		t.Errorf("a resident=%v after b's return, %d computes; want false, 4", c.resident("a"), calls.Load())
	}
	if g, n := gauge.Value(), evictions.Value(); g != 20 || n != 2 {
		t.Errorf("gauge %v evictions %d, want 20 and 2", g, n)
	}
}

// TestOversizedEntry: a value charged more than the whole budget is
// returned to its caller but evicted at once, taking every other entry
// with it; the next caller computes again.
func TestOversizedEntry(t *testing.T) {
	reg := obs.NewRegistry()
	gauge, evictions := reg.Gauge("bytes", nil), reg.Counter("evictions", nil)
	c := New[int](25, gauge, evictions)
	var calls atomic.Int64
	if _, _, err := c.GetOrCompute(context.Background(), "small", value(&calls, 1, 10)); err != nil {
		t.Fatal(err)
	}
	v, out, err := c.GetOrCompute(context.Background(), "big", value(&calls, 9, 30))
	if err != nil || v != 9 || out != Compute {
		t.Fatalf("oversized compute: %d %q %v, want 9 compute", v, out, err)
	}
	if c.resident("big") || c.resident("small") || c.bytes != 0 {
		t.Errorf("after the oversized entry: big=%v small=%v bytes=%d, want none resident",
			c.resident("big"), c.resident("small"), c.bytes)
	}
	if g, n := gauge.Value(), evictions.Value(); g != 0 || n != 2 {
		t.Errorf("gauge %v evictions %d, want 0 and 2", g, n)
	}
	if _, out, _ := c.GetOrCompute(context.Background(), "big", value(&calls, 9, 30)); out != Compute {
		t.Errorf("oversized entry outcome %q on the second call, want compute", out)
	}
}

// TestChurnWithinBudget: many keys cycling through a small budget
// never hold more than the budget, and concurrent callers (run under
// -race) see consistent values.
func TestChurnWithinBudget(t *testing.T) {
	c := New[string](30, nil, nil) // three entries of 10
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprint("k", (i+g)%7)
				v, _, err := c.GetOrCompute(context.Background(), key, func() (string, int64, error) {
					return key, 10, nil
				})
				if err != nil || v != key {
					t.Errorf("%s: got %q %v", key, v, err)
					return
				}
				c.mu.Lock()
				n, b := len(c.entries), c.bytes
				c.mu.Unlock()
				if n > 3 || b > 30 {
					t.Errorf("cache grew to %d entries, %d bytes over its 3-entry budget", n, b)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestGet: Get reports a resident value and marks it most recently
// used, and reports a key that is absent or still computing as absent
// without joining or starting a computation.
func TestGet(t *testing.T) {
	c := New[int](25, nil, nil) // room for two entries of 10
	var calls atomic.Int64
	if _, ok := c.Get("a"); ok {
		t.Fatal("Get found a key never computed")
	}
	c.GetOrCompute(context.Background(), "a", value(&calls, 1, 10))
	c.GetOrCompute(context.Background(), "b", value(&calls, 2, 10))
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v, %v; want 1, true", v, ok)
	}
	c.GetOrCompute(context.Background(), "c", value(&calls, 3, 10)) // evicts b, not a
	if !c.resident("a") || c.resident("b") {
		t.Errorf("resident a/b = %v/%v after Get(a), want true/false", c.resident("a"), c.resident("b"))
	}

	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.GetOrCompute(context.Background(), "d", func() (int, int64, error) {
			close(started)
			<-release
			return 4, 1, nil
		})
	}()
	<-started
	if _, ok := c.Get("d"); ok {
		t.Error("Get found a key whose computation is still running")
	}
	close(release)
	<-done
	if calls.Load() != 3 {
		t.Errorf("%d computes, want 3 (Get never computes)", calls.Load())
	}
}
