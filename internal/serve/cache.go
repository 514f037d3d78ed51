package serve

import (
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"specctrl/internal/experiments"
	"specctrl/internal/obs"
)

// memBudget bounds the Store's in-memory tier, in encoded bytes: each
// resident cell is charged the size of its JSON file.
// A default-scale -exp all catalogue is ~785 cells of ~6.5 KB each
// (~5 MiB), so 64 MiB holds it many times over while still bounding a
// long-running daemon that serves many parameter sets.
const memBudget = 64 << 20

// Store is the content-addressed result cache. It has two tiers, both
// keyed by the cell's canonical address (experiments.CellAddress):
//
//   - a bounded in-memory tier of decoded results, LRU-evicted by
//     encoded size, which serves warm cells without a file read or a
//     JSON decode;
//   - the on-disk tier, one JSON file per cell, which outlives the
//     process and is shared by every server on the same directory.
//
// An in-memory singleflight table in front of both makes concurrent
// requests for the same address trigger exactly one simulation.
//
// Because a cell's address captures everything its result is a function
// of, and experiments.CellResult round-trips exactly through JSON, a
// cell served from the store is byte-for-byte indistinguishable from a
// freshly simulated one — entries never expire. Every caller of one
// address receives the same decoded value (see the sharing contract on
// experiments.CellCache). The store must be cleared by the operator when
// simulator behaviour changes (the same event that regenerates
// results_full.txt); the memory tier lives for the process, so clearing
// the directory also means restarting the server.
//
// Layout: <dir>/<first two hex digits>/<address>.json, sharded to keep
// directories small. Writes go through a temp file + rename, so a
// crashed writer leaves no partial entry; unreadable or corrupt entries
// are treated as misses and overwritten.
type Store struct {
	dir string

	mu       sync.Mutex
	inflight map[string]*flight
	memMax   int64 // memory-tier budget in encoded bytes (memBudget)
	memBytes int64
	mem      map[string]*list.Element
	lru      *list.List // front = most recently used

	hits, misses, dedup, memHits *obs.Counter
	memGauge                     *obs.Gauge
}

// flight is one in-progress computation; followers wait on done.
type flight struct {
	done chan struct{}
	val  experiments.CellResult
	err  error
}

// memEntry is one resident cell; the lru list owns these.
type memEntry struct {
	addr  string
	val   experiments.CellResult
	bytes int64 // size of the entry's JSON file, the budget unit
}

// NewStore opens (creating if needed) a content-addressed store rooted
// at dir. When reg is non-nil the store publishes
// specctrl_serve_cache_{hits,misses,dedup,mem_hits}_total and the
// specctrl_serve_cache_mem_bytes gauge.
func NewStore(dir string, reg *obs.Registry) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("serve: store directory required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: store: %w", err)
	}
	s := &Store{
		dir:      dir,
		inflight: make(map[string]*flight),
		memMax:   memBudget,
		mem:      make(map[string]*list.Element),
		lru:      list.New(),
	}
	if reg != nil {
		s.hits = reg.Counter("specctrl_serve_cache_hits_total", nil)
		s.misses = reg.Counter("specctrl_serve_cache_misses_total", nil)
		s.dedup = reg.Counter("specctrl_serve_cache_dedup_total", nil)
		s.memHits = reg.Counter("specctrl_serve_cache_mem_hits_total", nil)
		s.memGauge = reg.Gauge("specctrl_serve_cache_mem_bytes", nil)
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(addr string) string {
	return filepath.Join(s.dir, addr[:2], addr+".json")
}

// Lookup returns the cell stored under addr, reporting whether a valid
// entry exists: from memory when resident, else from disk (which makes
// it resident).
func (s *Store) Lookup(addr string) (experiments.CellResult, bool) {
	s.mu.Lock()
	c, ok := s.memGetLocked(addr)
	s.mu.Unlock()
	if ok {
		return c, true
	}
	return s.load(addr)
}

// load reads and decodes the on-disk entry for addr and inserts it
// into the memory tier.
func (s *Store) load(addr string) (experiments.CellResult, bool) {
	data, err := os.ReadFile(s.path(addr))
	if err != nil {
		return experiments.CellResult{}, false
	}
	var c experiments.CellResult
	if err := json.Unmarshal(data, &c); err != nil {
		return experiments.CellResult{}, false // corrupt: treat as miss
	}
	s.memPut(addr, c, int64(len(data)))
	return c, true
}

// memGetLocked returns the resident value for addr, marking it most
// recently used. s.mu must be held.
func (s *Store) memGetLocked(addr string) (experiments.CellResult, bool) {
	el, ok := s.mem[addr]
	if !ok {
		return experiments.CellResult{}, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*memEntry).val, true
}

// memPut makes c resident under addr, charging size encoded bytes, and
// evicts from the LRU tail until the budget holds again. An address
// already resident keeps its value (the result at an address is
// deterministic, so the first decoded copy is as good as any). A cell
// larger than the whole budget is evicted at once; the caller already
// holds the value, so the only cost is a disk read next time.
func (s *Store) memPut(addr string, c experiments.CellResult, size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.mem[addr]; ok {
		s.lru.MoveToFront(el)
		return
	}
	s.mem[addr] = s.lru.PushFront(&memEntry{addr: addr, val: c, bytes: size})
	s.memBytes += size
	for s.memBytes > s.memMax {
		victim := s.lru.Remove(s.lru.Back()).(*memEntry)
		delete(s.mem, victim.addr)
		s.memBytes -= victim.bytes
	}
	if s.memGauge != nil {
		s.memGauge.SetUint(uint64(s.memBytes))
	}
}

// save writes the cell atomically (temp file + rename in the same
// directory), then makes it resident in memory.
func (s *Store) save(addr string, c experiments.CellResult) error {
	data, err := json.Marshal(c)
	if err != nil {
		return fmt.Errorf("serve: store encode: %w", err)
	}
	data = append(data, '\n')
	dir := filepath.Dir(s.path(addr))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serve: store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "."+addr+".tmp*")
	if err != nil {
		return fmt.Errorf("serve: store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: store write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: store write: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(addr)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: store write: %w", err)
	}
	s.memPut(addr, c, int64(len(data)))
	return nil
}

// GetOrCompute returns the cell stored under addr, computing and
// storing it on a miss. A memory-resident cell returns at once.
// Otherwise concurrent callers with the same address are deduplicated:
// exactly one reads the disk tier or runs compute (with its own
// context), the rest block until it finishes (or their ctx is
// cancelled) and share the outcome. Compute errors are returned to
// every waiter and are not cached — the next request retries.
func (s *Store) GetOrCompute(ctx context.Context, addr string,
	compute func(context.Context) (experiments.CellResult, error)) (experiments.CellResult, error) {
	s.mu.Lock()
	if c, ok := s.memGetLocked(addr); ok {
		s.mu.Unlock()
		if s.hits != nil {
			s.hits.Inc()
			s.memHits.Inc()
		}
		return c, nil
	}
	if f, ok := s.inflight[addr]; ok {
		s.mu.Unlock()
		select {
		case <-f.done:
			if f.err == nil && s.dedup != nil {
				s.dedup.Inc()
			}
			return f.val, f.err
		case <-ctx.Done():
			return experiments.CellResult{}, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[addr] = f
	s.mu.Unlock()

	finish := func(val experiments.CellResult, err error) {
		f.val, f.err = val, err
		s.mu.Lock()
		delete(s.inflight, addr)
		s.mu.Unlock()
		close(f.done)
	}

	if c, ok := s.load(addr); ok {
		finish(c, nil)
		if s.hits != nil {
			s.hits.Inc()
		}
		return c, nil
	}
	val, err := compute(ctx)
	if err == nil {
		err = s.save(addr, val)
	}
	finish(val, err)
	if err == nil && s.misses != nil {
		s.misses.Inc()
	}
	return val, err
}
