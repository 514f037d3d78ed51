package runner

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specctrl/internal/obs"
)

// grid returns n specs with distinct keys.
func grid(n int) []Spec {
	specs := make([]Spec, n)
	for i := range specs {
		specs[i] = Spec{
			Experiment: "test",
			Workload:   fmt.Sprintf("w%d", i),
			Predictor:  "gshare",
			Variant:    "main",
		}
	}
	return specs
}

// TestRunPositionalDeterminism checks that results come back aligned
// with the input specs and identical across worker counts, even when
// cells finish out of order, and that every cell runs exactly once.
func TestRunPositionalDeterminism(t *testing.T) {
	specs := grid(37)
	var ref []string
	for _, jobs := range []int{1, 4, 16} {
		runs := make([]atomic.Int32, len(specs))
		cell := func(_ context.Context, sp Spec) (string, error) {
			runs[index(sp)].Add(1)
			// Uneven, scheduling-visible durations: later cells finish first.
			time.Sleep(time.Duration(len(sp.Workload)) * 100 * time.Microsecond)
			return sp.Key(), nil
		}
		res, err := Run(context.Background(), Options{Jobs: jobs}, specs, cell)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i, r := range res {
			if n := runs[i].Load(); n != 1 {
				t.Fatalf("jobs=%d: cell %d ran %d times", jobs, i, n)
			}
			if r != specs[i].Key() {
				t.Fatalf("jobs=%d: result %d misaligned: %s", jobs, i, r)
			}
		}
		if ref == nil {
			ref = res
		} else if !reflect.DeepEqual(res, ref) {
			t.Fatalf("jobs=%d: results differ from serial reference", jobs)
		}
	}
}

// index recovers a grid spec's position from its workload name.
func index(sp Spec) int {
	var i int
	fmt.Sscanf(sp.Workload, "w%d", &i)
	return i
}

// TestSharedQueueDrainsBacklog blocks cell 0 until every other cell
// has finished. Workers share one queue, so the worker holding cell 0
// stalls alone while the rest drain the grid; any static partition of
// cells to workers leaves cells queued behind cell 0 and deadlocks
// until the timeout fails the test.
func TestSharedQueueDrainsBacklog(t *testing.T) {
	const n = 64
	for _, jobs := range []int{2, 8} {
		reg := obs.NewRegistry()
		var finished atomic.Int32
		othersDone := make(chan struct{})
		cell := func(_ context.Context, sp Spec) (struct{}, error) {
			if index(sp) == 0 {
				select {
				case <-othersDone:
					return struct{}{}, nil
				case <-time.After(10 * time.Second):
					return struct{}{}, errors.New("cell 0 still waiting: cells are queued behind it")
				}
			}
			if finished.Add(1) == n-1 {
				close(othersDone)
			}
			return struct{}{}, nil
		}
		if _, err := Run(context.Background(), Options{Jobs: jobs, Obs: reg}, grid(n), cell); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if got := reg.Counter("specctrl_runner_cells_total", nil).Value(); got != n {
			t.Fatalf("jobs=%d: cells_total = %d, want %d", jobs, got, n)
		}
		if got := reg.Gauge("specctrl_runner_queue_depth", nil).Value(); got != 0 {
			t.Fatalf("jobs=%d: queue_depth = %v after the run, want 0", jobs, got)
		}
	}
}

// TestCancelMidFlight cancels a sweep while cells are running and
// checks that dispatch stops at a cell boundary and that no worker
// goroutines leak.
func TestCancelMidFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	cell := func(ctx context.Context, _ Spec) (string, error) {
		if started.Add(1) == 3 {
			cancel()
		}
		time.Sleep(100 * time.Microsecond)
		return "done", nil
	}
	const n = 100
	res, err := Run(ctx, Options{Jobs: 4}, grid(n), cell)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled run returned %d results, want none", len(res))
	}
	if ran := started.Load(); ran < 3 || ran == n {
		t.Fatalf("want a mid-flight split, got %d of %d cells run", ran, n)
	}
	// Workers exit at the next cell boundary; give them a moment.
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, n)
	}
}

// TestCellError checks that a failing cell cancels the sweep and is
// reported with its spec key.
func TestCellError(t *testing.T) {
	boom := errors.New("boom")
	var failed atomic.Bool
	cell := func(_ context.Context, sp Spec) (int, error) {
		if sp.Workload == "w5" {
			failed.Store(true)
			return 0, boom
		}
		return 1, nil
	}
	res, err := Run(context.Background(), Options{Jobs: 4}, grid(20), cell)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if want := "test/w5/gshare/main"; !strings.Contains(err.Error(), want) {
		t.Fatalf("err %q does not name failing cell %q", err, want)
	}
	if !failed.Load() || res != nil {
		t.Fatalf("failing cell ran = %v, results = %v; want ran, no results", failed.Load(), res)
	}
}

// TestShardPartition checks that n shards partition the grid exactly:
// every spec runs on exactly one shard, and only its own shard returns
// a value for it.
func TestShardPartition(t *testing.T) {
	const n = 4
	specs := grid(26)
	owner := make([]int, len(specs))
	for i := range owner {
		owner[i] = -1
	}
	for s := 0; s < n; s++ {
		var mu sync.Mutex
		cell := func(_ context.Context, sp Spec) (bool, error) {
			mu.Lock()
			defer mu.Unlock()
			if i := index(sp); owner[i] != -1 {
				t.Errorf("spec %d ran on shards %d and %d", i, owner[i], s)
			} else {
				owner[i] = s
			}
			return true, nil
		}
		res, err := Run(context.Background(), Options{Jobs: 2, Shard: Shard{Index: s, Count: n}}, specs, cell)
		if err != nil {
			t.Fatal(err)
		}
		for i, ok := range res {
			if ok != (owner[i] == s) {
				t.Fatalf("shard %d: spec %d returned %v, but ran on shard %d", s, i, ok, owner[i])
			}
		}
	}
	for i, o := range owner {
		if o == -1 {
			t.Fatalf("spec %d ran on no shard", i)
		}
	}
}

func TestParseShard(t *testing.T) {
	good := map[string]Shard{
		"0/1": {0, 1},
		"2/8": {2, 8},
		"7/8": {7, 8},
	}
	for in, want := range good {
		got, err := ParseShard(in)
		if err != nil || got != want {
			t.Fatalf("ParseShard(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "3", "8/8", "-1/4", "a/b", "1/0"} {
		if _, err := ParseShard(bad); err == nil {
			t.Fatalf("ParseShard(%q) succeeded, want error", bad)
		}
	}
}
