package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"specctrl/internal/experiments"
	"specctrl/internal/memo"
	"specctrl/internal/obs"
)

// memBudget bounds the Store's in-memory tier, in encoded bytes: each
// resident cell is charged the size of its JSON file.
// A default-scale -exp all catalogue is ~601 cells of ~6.5 KB each
// (~4 MiB), so 64 MiB holds it many times over while still bounding a
// long-running daemon that serves many parameter sets.
const memBudget = 64 << 20

// renderedBudget bounds the Store's rendered tier, in bytes of rendered
// output plus cell lists. A default-scale -exp all catalogue renders
// ~46 KB and lists ~601 cells (~76 KB of keys, addresses and headers),
// so 8 MiB holds it for dozens of parameter sets.
const renderedBudget = 8 << 20

// cellRef names one cell an experiment's grids read: its spec key and
// content address.
type cellRef struct{ key, addr string }

// cellRefOverhead is what a cellRef costs beyond its strings' bytes:
// two string headers.
const cellRefOverhead = 32

// rendered is one experiment's rendered output and every cell its
// grids read while it rendered, in the order the job served them. The
// output is a pure function of those cells, so a job that can read
// every listed cell from the store has the render too.
type rendered struct {
	output string
	cells  []cellRef
}

// size is the bytes a rendered entry is charged against renderedBudget.
func (r rendered) size() int64 {
	n := int64(len(r.output))
	for _, c := range r.cells {
		n += int64(len(c.key)+len(c.addr)) + cellRefOverhead
	}
	return n
}

// Store is the content-addressed result cache. Its cell tiers are both
// keyed by the cell's canonical address (experiments.CellAddress):
//
//   - a bounded in-memory tier of decoded results (a memo.Cache,
//     LRU-evicted by encoded size), which serves warm cells without a
//     file read or a JSON decode;
//   - the on-disk tier, one JSON file per cell, which outlives the
//     process and is shared by every server on the same directory.
//
// The memory tier's singleflight covers both: concurrent requests for
// one address read the disk tier or simulate exactly once.
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
//
// Beside the cells, a memory-only rendered tier keeps each experiment's
// rendered output and cell list under its experiments.ExperimentAddress
// (bounded by renderedBudget, LRU-evicted). It never answers on its
// own: a job serves a render only after reading every listed cell
// through GetOrCompute, so it holds nothing the cell tiers do not
// vouch for.
type Store struct {
	dir     string
	mem     *memo.Cache[experiments.CellResult]
	renders *memo.Cache[rendered]

	hits, misses, dedup, memHits, renderedHits *obs.Counter
}

// NewStore opens (creating if needed) a content-addressed store rooted
// at dir. When reg is non-nil the store publishes
// specctrl_serve_cache_{hits,misses,dedup,mem_hits}_total,
// specctrl_serve_rendered_hits_total and the
// specctrl_serve_cache_mem_bytes and specctrl_serve_rendered_bytes
// gauges.
func NewStore(dir string, reg *obs.Registry) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("serve: store directory required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: store: %w", err)
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Store{
		dir:     dir,
		mem:     memo.New[experiments.CellResult](memBudget, reg.Gauge("specctrl_serve_cache_mem_bytes", nil), nil),
		hits:    reg.Counter("specctrl_serve_cache_hits_total", nil),
		misses:  reg.Counter("specctrl_serve_cache_misses_total", nil),
		dedup:   reg.Counter("specctrl_serve_cache_dedup_total", nil),
		memHits: reg.Counter("specctrl_serve_cache_mem_hits_total", nil),

		renders:      memo.New[rendered](renderedBudget, reg.Gauge("specctrl_serve_rendered_bytes", nil), nil),
		renderedHits: reg.Counter("specctrl_serve_rendered_hits_total", nil),
	}, nil
}

// keepRendered stores a successful render under its experiment
// address. A render already stored there is kept: both are the same
// bytes.
func (s *Store) keepRendered(addr string, r rendered) {
	s.renders.GetOrCompute(context.Background(), addr, func() (rendered, int64, error) {
		return r, r.size(), nil
	})
}

func (s *Store) path(addr string) string {
	return filepath.Join(s.dir, addr[:2], addr+".json")
}

// load reads and decodes the on-disk entry for addr, returning its
// encoded size.
func (s *Store) load(addr string) (experiments.CellResult, int64, bool) {
	data, err := os.ReadFile(s.path(addr))
	if err != nil {
		return experiments.CellResult{}, 0, false
	}
	var c experiments.CellResult
	if err := json.Unmarshal(data, &c); err != nil {
		return experiments.CellResult{}, 0, false // corrupt: treat as miss
	}
	return c, int64(len(data)), true
}

// save writes the cell atomically (temp file + rename in the same
// directory) and returns its encoded size.
func (s *Store) save(addr string, c experiments.CellResult) (int64, error) {
	data, err := json.Marshal(c)
	if err != nil {
		return 0, fmt.Errorf("serve: store encode: %w", err)
	}
	data = append(data, '\n')
	dir := filepath.Dir(s.path(addr))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("serve: store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "."+addr+".tmp*")
	if err != nil {
		return 0, fmt.Errorf("serve: store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("serve: store write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("serve: store write: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(addr)); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("serve: store write: %w", err)
	}
	return int64(len(data)), nil
}

// GetOrCompute returns the cell stored under addr, computing and
// storing it on a miss. A memory-resident cell returns at once.
// Otherwise concurrent callers with the same address are deduplicated:
// exactly one reads the disk tier or runs compute (with its own
// context), the rest block until it finishes (or their ctx is
// cancelled) and share its value. Errors are not cached. A waiter
// whose leader failed (its job timed out or drained, or its compute
// only probed for a stored cell) does not share the error: it retries
// under its own context, so one job's failure never fails another job.
func (s *Store) GetOrCompute(ctx context.Context, addr string,
	compute func(context.Context) (experiments.CellResult, error)) (experiments.CellResult, error) {
	for {
		fromDisk := false
		val, out, err := s.mem.GetOrCompute(ctx, addr, func() (experiments.CellResult, int64, error) {
			if c, size, ok := s.load(addr); ok {
				fromDisk = true
				return c, size, nil
			}
			val, err := compute(ctx)
			if err != nil {
				return val, 0, err
			}
			size, err := s.save(addr, val)
			return val, size, err
		})
		if err != nil {
			if out == memo.Wait && ctx.Err() == nil {
				continue // another caller's failure; compute under ours
			}
			return val, err
		}
		switch {
		case out == memo.Hit:
			s.hits.Inc()
			s.memHits.Inc()
		case out == memo.Wait:
			s.dedup.Inc()
		case fromDisk:
			s.hits.Inc()
		default:
			s.misses.Inc()
		}
		return val, nil
	}
}
