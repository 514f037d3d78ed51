package experiments

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specctrl/internal/replay"
	"specctrl/internal/runner"
)

// smallParams is a heavily reduced scale for grid-mechanics tests that
// run the same experiment several times.
func smallParams() Params {
	p := TestParams()
	p.MaxCommitted = 40_000
	return p
}

// TestGridDeterminism is the tentpole guarantee: the same experiment
// rendered at Jobs: 1 and Jobs: 8 must be byte-identical, because cells
// are isolated and assembly is positional.
func TestGridDeterminism(t *testing.T) {
	serial := smallParams()
	serial.Jobs = 1
	wide := smallParams()
	wide.Jobs = 8

	r1, err := Table2(serial)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Table2(wide)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Fatal("Table2 results differ between Jobs=1 and Jobs=8")
	}
	if r1.Render() != r8.Render() {
		t.Fatal("Table2 rendered output differs between Jobs=1 and Jobs=8")
	}
}

// TestGridCancellation cancels an experiment mid-grid via Params.Ctx and
// checks that the error surfaces as context.Canceled and that the
// runner's workers exit (no goroutine leak).
func TestGridCancellation(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	p := smallParams()
	p.TraceCache = replay.NewCache(0, nil) // cold, so cells emit progress
	p.Ctx = ctx
	p.Jobs = 4
	var cells atomic.Int32 // bumped from concurrent runner workers
	p.Progress = func(string) {
		if cells.Add(1) == 2 {
			cancel()
		}
	}
	_, err := Table2(p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}

	// Workers stop at the next cell boundary; give them a moment.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before cancel, %d after", before, runtime.NumGoroutine())
}

// TestCellsRoundTrip dumps a grid's cells to JSON, reloads them, and
// re-renders purely from the preloaded cells: the reuse path must be
// byte-identical to direct simulation, and must not simulate at all.
func TestCellsRoundTrip(t *testing.T) {
	rec := smallParams()
	rec.Record = NewCellStore()
	direct, err := Table3(rec)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Record.Len() == 0 {
		t.Fatal("no cells recorded")
	}

	data, err := rec.Record.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	cells, err := UnmarshalCells(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != rec.Record.Len() {
		t.Fatalf("round-trip lost cells: %d != %d", len(cells), rec.Record.Len())
	}

	replay := smallParams()
	replay.Cells = cells
	replay.Progress = func(msg string) { t.Fatalf("simulated despite preloaded cells: %s", msg) }
	reloaded, err := Table3(replay)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Render() != reloaded.Render() {
		t.Fatal("render from reloaded cells differs from direct simulation")
	}
}

// TestUnmarshalCellsVersion: cell files from a different (typically
// future) schema version must fail with the typed version error before
// any cell payload is decoded.
func TestUnmarshalCellsVersion(t *testing.T) {
	for _, bad := range []string{
		`{"version":2,"cells":{}}`,  // future version
		`{"version":0,"cells":{}}`,  // explicit zero
		`{"cells":{}}`,              // version missing entirely
		`{"version":-1,"cells":{}}`, // nonsense
	} {
		_, err := UnmarshalCells([]byte(bad))
		var verr *UnsupportedCellVersionError
		if !errors.As(err, &verr) {
			t.Errorf("UnmarshalCells(%s) = %v, want UnsupportedCellVersionError", bad, err)
		}
	}
	if _, err := UnmarshalCells([]byte(`{"version":1,"cells":{}}`)); err != nil {
		t.Errorf("current version rejected: %v", err)
	}
	if _, err := UnmarshalCells([]byte(`not json`)); err == nil {
		t.Error("malformed file accepted")
	}
}

// countingCache is a minimal CellCache: an in-memory map that counts
// computes, standing in for internal/serve's on-disk store.
type countingCache struct {
	mu       sync.Mutex
	m        map[string]CellResult
	computes int
}

func (c *countingCache) GetOrCompute(ctx context.Context, addr string, _ runner.Spec,
	compute func(context.Context) (CellResult, error)) (CellResult, error) {
	c.mu.Lock()
	if hit, ok := c.m[addr]; ok {
		c.mu.Unlock()
		return hit, nil
	}
	c.mu.Unlock()
	res, err := compute(ctx)
	if err != nil {
		return res, err
	}
	c.mu.Lock()
	if c.m == nil {
		c.m = map[string]CellResult{}
	}
	c.m[addr] = res
	c.computes++
	c.mu.Unlock()
	return res, nil
}

// TestGridCellCache runs a grid twice through one CellCache with fresh
// Params: the second run must compute nothing and render identically —
// the property internal/serve's result cache is built on.
func TestGridCellCache(t *testing.T) {
	cc := &countingCache{}

	// Direct mode: this test pins the one-cell-per-workload grid shape
	// whose addresses m2cells re-derives (replay-mode grids have their
	// own shape, covered by the replay tests).
	first := smallParams()
	first.Replay = ReplayOff
	first.Cache = cc
	direct, err := Table3(first)
	if err != nil {
		t.Fatal(err)
	}
	if cc.computes != len(suite()) {
		t.Fatalf("first run computed %d cells, want %d", cc.computes, len(suite()))
	}

	second := smallParams()
	second.Replay = ReplayOff
	second.Cache = cc
	replay, err := Table3(second)
	if err != nil {
		t.Fatal(err)
	}
	if cc.computes != len(suite()) {
		t.Fatalf("second run computed %d new cells, want 0", cc.computes-len(suite()))
	}
	if direct.Render() != replay.Render() {
		t.Fatal("render from cached cells differs from direct simulation")
	}

	// Preloaded Cells take precedence over the cache: a poisoned cache
	// never overrides explicitly supplied cells.
	pre := smallParams()
	pre.Replay = ReplayOff
	pre.Cache = &countingCache{} // empty; would simulate if consulted
	pre.Cells = cc.m2cells(t)
	pre.Progress = func(msg string) { t.Fatalf("simulated despite preloaded cells: %s", msg) }
	if _, err := Table3(pre); err != nil {
		t.Fatal(err)
	}
}

// m2cells rekeys the cache's address-keyed entries by spec key for use
// as a Params.Cells preload.
func (c *countingCache) m2cells(t *testing.T) map[string]CellResult {
	t.Helper()
	p := smallParams()
	out := map[string]CellResult{}
	for _, w := range suite() {
		sp := runner.Spec{Experiment: "table3", Workload: w.Name, Predictor: "mcfarling", Variant: "main"}
		hit, ok := c.m[p.CellAddress(sp)]
		if !ok {
			t.Fatalf("cache missing cell for %s", sp.Key())
		}
		out[sp.Key()] = hit
	}
	return out
}

// TestShardRun is the multi-machine guarantee: for every grid
// experiment, two shard runs each return ErrShardOnly and record only
// their own cells, the cells survive the -cells-out/-cells-in JSON
// round trip, and merging them renders exactly the bytes of a direct
// run.
func TestShardRun(t *testing.T) {
	for _, e := range Experiments() {
		if e.Name == "fig1" || e.Name == "cost" {
			continue // analytic: no grid to shard
		}
		t.Run(e.Name, func(t *testing.T) {
			merged := map[string]CellResult{}
			total := 0
			for i := 0; i < 2; i++ {
				p := smallParams()
				p.Shard = runner.Shard{Index: i, Count: 2}
				p.Record = NewCellStore()
				if _, err := e.Run(p); !errors.Is(err, ErrShardOnly) {
					t.Fatalf("shard %d: got %v, want ErrShardOnly", i, err)
				}
				data, err := p.Record.MarshalJSON()
				if err != nil {
					t.Fatal(err)
				}
				cells, err := UnmarshalCells(data)
				if err != nil {
					t.Fatal(err)
				}
				total += len(cells)
				for k, c := range cells {
					if _, dup := merged[k]; dup {
						t.Fatalf("cell %s computed by two shards", k)
					}
					merged[k] = c
				}
			}
			// An estimator sweep is one cell per workload, whatever
			// the -replay mode.
			if want := len(suite()); e.Name == "table3" && total != want {
				t.Fatalf("shards produced %d cells, want %d", total, want)
			}
			want, err := e.Run(smallParams())
			if err != nil {
				t.Fatal(err)
			}
			full := smallParams()
			full.Cells = merged
			full.Progress = func(msg string) { t.Errorf("merge simulated a cell: %s", msg) }
			got, err := e.Run(full)
			if err != nil {
				t.Fatal(err)
			}
			if want.Render() != got.Render() {
				t.Fatal("merged shard render differs from direct run")
			}
		})
	}
}
