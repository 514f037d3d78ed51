package serve

import (
	"context"
	"errors"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specctrl/internal/experiments"
	"specctrl/internal/obs"
	"specctrl/internal/pipeline"
)

// addr returns a syntactically valid content address for tests.
func testAddr(tag string) string {
	return strings.Repeat("0", 64-len(tag)) + tag
}

func testCell(v float64) experiments.CellResult {
	return experiments.CellResult{
		Stats: &pipeline.Stats{},
		Extra: map[string]float64{"v": v},
	}
}

// seed stores c under addr through GetOrCompute, as a computed miss.
func seed(t *testing.T, s *Store, addr string, c experiments.CellResult) {
	t.Helper()
	if _, err := s.GetOrCompute(context.Background(), addr,
		func(context.Context) (experiments.CellResult, error) { return c, nil }); err != nil {
		t.Fatal(err)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := NewStore(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	addr := testAddr("aa")
	computes := 0
	compute := func(context.Context) (experiments.CellResult, error) {
		computes++
		return testCell(42), nil
	}
	c1, err := s.GetOrCompute(context.Background(), addr, compute)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.GetOrCompute(context.Background(), addr, compute)
	if err != nil {
		t.Fatal(err)
	}
	if computes != 1 {
		t.Errorf("computed %d times, want 1", computes)
	}
	if c1.Extra["v"] != 42 || c2.Extra["v"] != 42 {
		t.Errorf("results: %v %v", c1, c2)
	}
	if h := reg.Counter("specctrl_serve_cache_hits_total", nil).Value(); h != 1 {
		t.Errorf("hits = %d, want 1", h)
	}
	if m := reg.Counter("specctrl_serve_cache_misses_total", nil).Value(); m != 1 {
		t.Errorf("misses = %d, want 1", m)
	}

	// A second store over the same directory sees the entry (the cache
	// is a plain content-addressed directory, shareable across
	// processes).
	s2, err := NewStore(s.Dir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Lookup(addr); !ok {
		t.Error("second store over same dir misses the entry")
	}
}

// TestStoreSingleflight is the dedup guarantee: N concurrent requests
// for one address run compute exactly once and all see its result.
func TestStoreSingleflight(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := NewStore(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	addr := testAddr("bb")
	var computes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	compute := func(context.Context) (experiments.CellResult, error) {
		computes.Add(1)
		close(started)
		<-release
		return testCell(7), nil
	}

	const followers = 8
	var wg sync.WaitGroup
	results := make([]experiments.CellResult, followers+1)
	errs := make([]error, followers+1)
	wg.Add(1)
	go func() { defer wg.Done(); results[0], errs[0] = s.GetOrCompute(context.Background(), addr, compute) }()
	<-started // leader is inside compute; everyone else must join it
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.GetOrCompute(context.Background(), addr, compute)
		}(i)
	}
	time.Sleep(10 * time.Millisecond) // let followers park on the flight
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Errorf("computed %d times, want 1", n)
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("caller %d: %v", i, err)
		}
		if results[i].Extra["v"] != 7 {
			t.Errorf("caller %d result: %v", i, results[i])
		}
	}
	if d := reg.Counter("specctrl_serve_cache_dedup_total", nil).Value(); d != followers {
		t.Errorf("dedup = %d, want %d", d, followers)
	}
}

func TestStoreErrorNotCached(t *testing.T) {
	s, err := NewStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := testAddr("cc")
	boom := errors.New("boom")
	if _, err := s.GetOrCompute(context.Background(), addr,
		func(context.Context) (experiments.CellResult, error) {
			return experiments.CellResult{}, boom
		}); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	// The failure must not poison the address.
	c, err := s.GetOrCompute(context.Background(), addr,
		func(context.Context) (experiments.CellResult, error) { return testCell(1), nil })
	if err != nil || c.Extra["v"] != 1 {
		t.Errorf("retry after error: %v, %v", c, err)
	}
}

// TestStoreCorruptEntryRecomputed covers the disk tier on its own: a
// file corrupted behind a running store's back stays masked by that
// store's memory tier, so the corruption is seen by a fresh store on
// the same directory — the restart or second-server case.
func TestStoreCorruptEntryRecomputed(t *testing.T) {
	s, err := NewStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := testAddr("dd")
	if _, err := s.GetOrCompute(context.Background(), addr,
		func(context.Context) (experiments.CellResult, error) { return testCell(5), nil }); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(addr), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	restarted, err := NewStore(s.Dir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := restarted.GetOrCompute(context.Background(), addr,
		func(context.Context) (experiments.CellResult, error) { return testCell(6), nil })
	if err != nil || c.Extra["v"] != 6 {
		t.Fatalf("corrupt entry not recomputed: %v, %v", c, err)
	}
	// And the recompute repaired the entry on disk.
	fresh, err := NewStore(s.Dir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := fresh.Lookup(addr); !ok || c.Extra["v"] != 6 {
		t.Errorf("entry not repaired: %v %v", c, ok)
	}
}

// TestStoreMemoryTier: a resident address is served without touching
// disk, while a fresh store on the same directory has only the disk
// tier to go by.
func TestStoreMemoryTier(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := NewStore(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	addr := testAddr("f1")
	if _, err := s.GetOrCompute(context.Background(), addr,
		func(context.Context) (experiments.CellResult, error) { return testCell(3), nil }); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(s.path(addr)); err != nil {
		t.Fatal(err)
	}
	if c, ok := s.Lookup(addr); !ok || c.Extra["v"] != 3 {
		t.Errorf("resident entry missed after its file was removed: %v %v", c, ok)
	}
	c, err := s.GetOrCompute(context.Background(), addr,
		func(context.Context) (experiments.CellResult, error) {
			t.Error("resident entry recomputed")
			return testCell(4), nil
		})
	if err != nil || c.Extra["v"] != 3 {
		t.Errorf("GetOrCompute on resident entry: %v, %v", c, err)
	}
	if h := reg.Counter("specctrl_serve_cache_mem_hits_total", nil).Value(); h != 1 {
		t.Errorf("mem hits = %d, want 1", h)
	}
	if h := reg.Counter("specctrl_serve_cache_hits_total", nil).Value(); h != 1 {
		t.Errorf("hits = %d, want 1 (mem hits are a subset)", h)
	}

	fresh, err := NewStore(s.Dir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.Lookup(addr); ok {
		t.Error("fresh store hit an entry that exists only in another store's memory")
	}
}

// TestStoreMemoryBudget: the memory tier evicts least-recently-used
// entries first and never holds more encoded bytes than its budget.
// Evicted cells remain on disk, so they are still hits.
func TestStoreMemoryBudget(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := NewStore(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	put := func(tag string) int64 {
		t.Helper()
		seed(t, s, testAddr(tag), testCell(1))
		fi, err := os.Stat(s.path(testAddr(tag)))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	// Every test cell encodes to the same length; budget two of them.
	size := put("a1")
	s.mu.Lock()
	s.memMax = 2 * size
	s.mu.Unlock()
	put("a2")
	s.Lookup(testAddr("a1")) // a1 is now most recently used
	put("a3")                // evicts a2, the LRU entry

	resident := func(tag string) bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		_, ok := s.mem[testAddr(tag)]
		return ok
	}
	if !resident("a1") || resident("a2") || !resident("a3") {
		t.Errorf("resident a1/a2/a3 = %v/%v/%v, want true/false/true",
			resident("a1"), resident("a2"), resident("a3"))
	}
	s.mu.Lock()
	bytes, max := s.memBytes, s.memMax
	s.mu.Unlock()
	if bytes > max || bytes != 2*size {
		t.Errorf("resident bytes = %d, want %d (budget %d)", bytes, 2*size, max)
	}
	if g := reg.Gauge("specctrl_serve_cache_mem_bytes", nil).Value(); int64(g) != bytes {
		t.Errorf("mem_bytes gauge = %v, want %d", g, bytes)
	}
	if c, ok := s.Lookup(testAddr("a2")); !ok || c.Extra["v"] != 1 {
		t.Errorf("evicted entry not served from disk: %v %v", c, ok)
	}
}

// TestStoreResidentConcurrent hammers GetOrCompute and Lookup on a
// resident address from many goroutines; run under -race.
func TestStoreResidentConcurrent(t *testing.T) {
	s, err := NewStore(t.TempDir(), obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	addr := testAddr("f2")
	seed(t, s, addr, testCell(9))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				c, err := s.GetOrCompute(context.Background(), addr,
					func(context.Context) (experiments.CellResult, error) {
						t.Error("resident entry recomputed")
						return testCell(0), nil
					})
				if err != nil || c.Extra["v"] != 9 {
					t.Errorf("GetOrCompute: %v, %v", c, err)
					return
				}
				if c, ok := s.Lookup(addr); !ok || c.Extra["v"] != 9 {
					t.Errorf("Lookup: %v %v", c, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestStoreFollowerCancellation(t *testing.T) {
	s, err := NewStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := testAddr("ee")
	started := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		s.GetOrCompute(context.Background(), addr,
			func(context.Context) (experiments.CellResult, error) {
				close(started)
				<-release
				return testCell(1), nil
			})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = s.GetOrCompute(ctx, addr,
		func(context.Context) (experiments.CellResult, error) { return testCell(2), nil })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled follower got %v, want context.Canceled", err)
	}
	close(release)
	<-leaderDone // the leader writes into TempDir; let it finish before cleanup
}
