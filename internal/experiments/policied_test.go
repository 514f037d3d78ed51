package experiments

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"specctrl/internal/policy"
	"specctrl/internal/replay"
	"specctrl/internal/runner"
)

// TestPoliciedBaselineEstimatorFree pins the invariant the single
// per-workload baseline rests on: estimators are passive, so an
// unpolicied run's timing and work are identical with no estimator and
// with each estimator the policied cells accept.
func TestPoliciedBaselineEstimatorFree(t *testing.T) {
	p := frontierParams()
	for _, w := range suite() {
		bare, err := p.runOne(w, GshareSpec())
		if err != nil {
			t.Fatal(err)
		}
		for name, mk := range policiedEstimators {
			st, err := p.runOne(w, GshareSpec(), mk())
			if err != nil {
				t.Fatal(err)
			}
			if st.Cycles != bare.Cycles || st.Committed != bare.Committed ||
				st.WrongPath != bare.WrongPath || st.GatedCycles != bare.GatedCycles ||
				!reflect.DeepEqual(st.CycleAccounts, bare.CycleAccounts) {
				t.Errorf("%s: unpolicied run with %s differs from the estimator-free run", w.Name, name)
			}
		}
	}
}

// TestPoliciedCellSharing: abl-gating and frontier share their baselines
// and their common gate:1..3 x JRS/SatCnt runs through one cache, so
// together they simulate 128 distinct runs in either order, and the
// order does not change either render.
func TestPoliciedCellSharing(t *testing.T) {
	type step struct {
		name string
		run  func(Params) (Renderer, error)
		want int
	}
	gatingStep := func(want int) step {
		return step{"abl-gating", func(p Params) (Renderer, error) { return AblationGating(p) }, want}
	}
	frontierStep := func(want int) step {
		return step{"frontier", func(p Params) (Renderer, error) { return Frontier(p) }, want}
	}
	renders := map[string]string{}
	for _, order := range [][]step{
		{gatingStep(80), frontierStep(48)},
		{frontierStep(104), gatingStep(24)},
	} {
		cc := &countingCache{}
		for _, s := range order {
			p := frontierParams()
			p.Cache = cc
			before := cc.computes
			r, err := s.run(p)
			if err != nil {
				t.Fatal(err)
			}
			if got := cc.computes - before; got != s.want {
				t.Errorf("%s computed %d cells, want %d", s.name, got, s.want)
			}
			if prev, ok := renders[s.name]; ok && prev != r.Render() {
				t.Errorf("%s render depends on experiment order", s.name)
			}
			renders[s.name] = r.Render()
		}
		if cc.computes != 128 {
			t.Errorf("abl-gating + frontier computed %d cells, want 128", cc.computes)
		}
	}
}

// TestPoliciedMemo: with Params.Cache nil, the process-wide memo shares
// runs across experiments — abl-gating then frontier simulates exactly
// the 120 policied runs and records the 8 baselines' traces (a baseline
// is the recorded run's base stats), and a repeat does neither. The test
// swaps in a cold memo and a fresh trace cache so other tests cannot
// have warmed them.
func TestPoliciedMemo(t *testing.T) {
	defer func(m memoCells) { policiedMemo = m }(policiedMemo)
	policiedMemo = newMemoCells()
	p := frontierParams()
	p.Jobs = 2
	p.TraceCache = replay.NewCache(0, nil)
	var runs, records atomic.Int64
	p.Progress = func(msg string) {
		switch {
		case strings.HasPrefix(msg, "run "):
			runs.Add(1)
		case strings.HasPrefix(msg, "record "):
			records.Add(1)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := AblationGating(p); err != nil {
			t.Fatal(err)
		}
		if _, err := Frontier(p); err != nil {
			t.Fatal(err)
		}
		if got, n := runs.Load(), records.Load(); got != 120 || n != 8 {
			t.Fatalf("pass %d: %d simulations and %d recordings in total, want 120 and 8", i+1, got, n)
		}
	}
}

// TestPoliciedIgnoresBaseConfigPolicy: a baseline is unpolicied by
// definition and every other cell installs only its own policy, so a
// base-config policy changes neither render nor any cell address.
func TestPoliciedIgnoresBaseConfigPolicy(t *testing.T) {
	render := func(p Params) (string, []string) {
		cc := &countingCache{}
		p.Cache = cc
		g, err := AblationGating(p)
		if err != nil {
			t.Fatal(err)
		}
		f, err := Frontier(p)
		if err != nil {
			t.Fatal(err)
		}
		addrs := make([]string, 0, len(cc.m))
		for a := range cc.m {
			addrs = append(addrs, a)
		}
		sort.Strings(addrs)
		return g.Render() + f.Render(), addrs
	}
	plain := frontierParams()
	policied := frontierParams()
	var err error
	if policied.Pipeline.Policy, err = policy.Parse("gate:2"); err != nil {
		t.Fatal(err)
	}
	want, wantAddrs := render(plain)
	got, gotAddrs := render(policied)
	if got != want {
		t.Errorf("base-config gate:2 changed the renders:\n%s\nwant:\n%s", got, want)
	}
	if !reflect.DeepEqual(gotAddrs, wantAddrs) {
		t.Error("base-config gate:2 changed the policied cell addresses")
	}
}

// TestPoliciedCellErrors: malformed variants fail with an error naming
// the cell instead of simulating something else.
func TestPoliciedCellErrors(t *testing.T) {
	p := frontierParams()
	p.Cache = &countingCache{}
	for _, r := range []policiedRun{
		{workload: "compress", estimator: "nope", policy: "gate:1"},
		{workload: "compress", estimator: "SatCnt", policy: "bogus"},
		{workload: "nope", estimator: "SatCnt", policy: "gate:1"},
	} {
		if _, err := p.policiedStats([]policiedRun{r}); err == nil {
			t.Errorf("%s: no error", r.spec().Key())
		}
	}
}

// TestMemoCellsSingleflight: concurrent callers of one address share a
// single compute and its result, and a failed compute is not remembered.
func TestMemoCellsSingleflight(t *testing.T) {
	m := newMemoCells()
	var computes atomic.Int64
	release := make(chan struct{})
	compute := func(context.Context) (CellResult, error) {
		computes.Add(1)
		<-release
		return CellResult{Extra: map[string]float64{"x": 1}}, nil
	}
	var wg sync.WaitGroup
	results := make([]CellResult, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := m.GetOrCompute(context.Background(), "a", runner.Spec{}, compute)
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}(i)
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("%d computes for one address, want 1", n)
	}
	for i, res := range results {
		if res.Extra["x"] != 1 {
			t.Errorf("caller %d got %+v", i, res)
		}
	}

	boom := errors.New("boom")
	if _, err := m.GetOrCompute(context.Background(), "b", runner.Spec{},
		func(context.Context) (CellResult, error) { return CellResult{}, boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	res, err := m.GetOrCompute(context.Background(), "b", runner.Spec{},
		func(context.Context) (CellResult, error) { return CellResult{Extra: map[string]float64{"y": 2}}, nil })
	if err != nil || res.Extra["y"] != 2 {
		t.Errorf("retry after a failed compute: %+v, %v", res, err)
	}
}
