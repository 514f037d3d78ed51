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
	"specctrl/internal/memo"
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

// fromStore returns the cell s holds under addr, failing the test if
// s has to compute it.
func fromStore(t *testing.T, s *Store, addr string) experiments.CellResult {
	t.Helper()
	c, err := s.GetOrCompute(context.Background(), addr,
		func(context.Context) (experiments.CellResult, error) {
			t.Errorf("%s: computed, want a stored entry", addr)
			return experiments.CellResult{}, errors.New("computed")
		})
	if err != nil {
		t.Fatal(err)
	}
	return c
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
	s2, err := NewStore(s.dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c := fromStore(t, s2, addr); c.Extra["v"] != 42 {
		t.Errorf("second store over same dir: %v", c)
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
	restarted, err := NewStore(s.dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := restarted.GetOrCompute(context.Background(), addr,
		func(context.Context) (experiments.CellResult, error) { return testCell(6), nil })
	if err != nil || c.Extra["v"] != 6 {
		t.Fatalf("corrupt entry not recomputed: %v, %v", c, err)
	}
	// And the recompute repaired the entry on disk.
	fresh, err := NewStore(s.dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c := fromStore(t, fresh, addr); c.Extra["v"] != 6 {
		t.Errorf("entry not repaired: %v", c)
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
	if c := fromStore(t, s, addr); c.Extra["v"] != 3 {
		t.Errorf("resident entry after its file was removed: %v", c)
	}
	if h := reg.Counter("specctrl_serve_cache_mem_hits_total", nil).Value(); h != 1 {
		t.Errorf("mem hits = %d, want 1", h)
	}
	if h := reg.Counter("specctrl_serve_cache_hits_total", nil).Value(); h != 1 {
		t.Errorf("hits = %d, want 1 (mem hits are a subset)", h)
	}

	fresh, err := NewStore(s.dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	computed := false
	if _, err := fresh.GetOrCompute(context.Background(), addr,
		func(context.Context) (experiments.CellResult, error) {
			computed = true
			return testCell(4), nil
		}); err != nil || !computed {
		t.Errorf("fresh store hit an entry that exists only in another store's memory (err %v)", err)
	}
}

// TestStoreMemoryBudget: the memory tier charges each cell its JSON
// file size against its budget and reports the resident bytes on the
// mem_bytes gauge. Evicted cells remain on disk, so they are still hits.
// (memo's tests pin the LRU order.)
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
	size := put("a0")
	gauge := reg.Gauge("specctrl_serve_cache_mem_bytes", nil)
	if g := gauge.Value(); int64(g) != size {
		t.Fatalf("mem_bytes gauge = %v after one cell, want its file size %d", g, size)
	}
	s.mem = memo.New[experiments.CellResult](2*size, gauge, nil)
	put("a1")
	put("a2")
	put("a3") // evicts a1
	if g := gauge.Value(); int64(g) != 2*size {
		t.Errorf("mem_bytes gauge = %v, want %d", g, 2*size)
	}
	hits, memHits := reg.Counter("specctrl_serve_cache_hits_total", nil), reg.Counter("specctrl_serve_cache_mem_hits_total", nil)
	if c := fromStore(t, s, testAddr("a1")); c.Extra["v"] != 1 {
		t.Errorf("evicted entry not served from disk: %v", c)
	}
	if h, m := hits.Value(), memHits.Value(); h != 1 || m != 0 {
		t.Errorf("hits/mem_hits = %d/%d after a disk read, want 1/0", h, m)
	}
}

// TestStoreResidentConcurrent hammers GetOrCompute on a resident
// address from many goroutines; run under -race.
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

// TestStoreWaiterRetriesFailedLeader: a caller waiting on another
// caller's computation of an address does not inherit that
// computation's failure — the other job's timeout, or a warm replay's
// probe that found the cell in neither tier — but computes the cell
// under its own context.
func TestStoreWaiterRetriesFailedLeader(t *testing.T) {
	for _, leaderErr := range []error{context.DeadlineExceeded, errNotStored} {
		t.Run(leaderErr.Error(), func(t *testing.T) {
			s, err := NewStore(t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			addr := testAddr("ab")
			started, release := make(chan struct{}), make(chan struct{})
			leaderDone := make(chan error, 1)
			go func() {
				_, err := s.GetOrCompute(context.Background(), addr,
					func(context.Context) (experiments.CellResult, error) {
						close(started)
						<-release
						return experiments.CellResult{}, leaderErr
					})
				leaderDone <- err
			}()
			<-started
			follower := make(chan experiments.CellResult, 1)
			go func() {
				c, err := s.GetOrCompute(context.Background(), addr,
					func(context.Context) (experiments.CellResult, error) { return testCell(8), nil })
				if err != nil {
					t.Errorf("waiter failed with its leader: %v", err)
				}
				follower <- c
			}()
			time.Sleep(10 * time.Millisecond) // let the follower park on the flight
			close(release)
			if err := <-leaderDone; !errors.Is(err, leaderErr) {
				t.Errorf("leader got %v, want its own %v", err, leaderErr)
			}
			if c := <-follower; c.Extra["v"] != 8 {
				t.Errorf("waiter got %v, want its own computation's cell", c)
			}
			if c := fromStore(t, s, addr); c.Extra["v"] != 8 {
				t.Errorf("stored %v, want the waiter's cell", c)
			}
		})
	}
}
