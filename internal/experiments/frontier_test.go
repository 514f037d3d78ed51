package experiments

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"specctrl/internal/policy"
	"specctrl/internal/runner"
	"specctrl/internal/workload"
)

// frontierParams: the frontier simulates every cell directly (policies
// perturb timing), so the grid-mechanics tests run it at a heavily
// reduced scale.
func frontierParams() Params {
	p := TestParams()
	p.MaxCommitted = 20_000
	return p
}

// frontierCells is the frontier's cell count: one baseline per workload
// plus one run per (estimator, policy, workload).
func frontierCells() int {
	return len(suite()) * (1 + len(frontierEstimators())*len(frontierPolicies()))
}

// TestFrontierDeterminism: the frontier grid must be byte-identical at
// any Jobs width — cells are isolated and assembly is positional. Each
// side simulates through its own cache, never the process memo.
func TestFrontierDeterminism(t *testing.T) {
	serial := frontierParams()
	serial.Jobs = 1
	serial.Cache = &countingCache{}
	wide := frontierParams()
	wide.Jobs = 8
	wide.Cache = &countingCache{}

	r1, err := Frontier(serial)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Frontier(wide)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Fatal("Frontier results differ between Jobs=1 and Jobs=8")
	}
	if r1.Render() != r8.Render() {
		t.Fatal("Frontier rendered output differs between Jobs=1 and Jobs=8")
	}
	// The sweep must be non-vacuous: at least one gating point actually
	// withheld fetch, and the table carries every (estimator, policy).
	want := len(frontierEstimators()) * len(frontierPolicies())
	if len(r1.Points) != want {
		t.Fatalf("points = %d, want %d", len(r1.Points), want)
	}
	gated := false
	for _, pt := range r1.Points {
		if pt.GatedFrac > 0 {
			gated = true
		}
	}
	if !gated {
		t.Fatal("no frontier policy gated any cycles; the sweep is vacuous")
	}
}

// TestFrontierShardRoundTrip: sharded frontier runs return ErrShardOnly,
// partition the cells without overlap, and merge back to the direct
// render.
func TestFrontierShardRoundTrip(t *testing.T) {
	merged := map[string]CellResult{}
	total := 0
	for i := 0; i < 3; i++ {
		p := frontierParams()
		p.Shard.Index, p.Shard.Count = i, 3
		p.Record = NewCellStore()
		p.Cache = &countingCache{}
		_, err := Frontier(p)
		if !errors.Is(err, ErrShardOnly) {
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
	if want := frontierCells(); total != want {
		t.Fatalf("shards produced %d cells, want %d", total, want)
	}
	dp := frontierParams()
	dp.Cache = &countingCache{}
	direct, err := Frontier(dp)
	if err != nil {
		t.Fatal(err)
	}
	full := frontierParams()
	full.Cells = merged
	full.Cache = &countingCache{}
	full.Progress = func(msg string) { t.Fatalf("simulated despite preloaded cells: %s", msg) }
	got, err := Frontier(full)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Render() != got.Render() {
		t.Fatal("merged shard render differs from direct run")
	}
}

// TestFrontierCellCache: resubmitting the frontier through one CellCache
// computes nothing the second time and renders identically — the
// property the serve result store relies on.
func TestFrontierCellCache(t *testing.T) {
	cc := &countingCache{}
	first := frontierParams()
	first.Cache = cc
	direct, err := Frontier(first)
	if err != nil {
		t.Fatal(err)
	}
	want := frontierCells()
	if cc.computes != want {
		t.Fatalf("first run computed %d cells, want %d", cc.computes, want)
	}
	second := frontierParams()
	second.Cache = cc
	second.Progress = func(msg string) { t.Fatalf("simulated despite warm cache: %s", msg) }
	cached, err := Frontier(second)
	if err != nil {
		t.Fatal(err)
	}
	if cc.computes != want {
		t.Fatalf("second run computed %d new cells, want 0", cc.computes-want)
	}
	if direct.Render() != cached.Render() {
		t.Fatal("render from cached cells differs from direct simulation")
	}
}

// TestFrontierRender pins the table's row labels so docs and smokes can
// grep for them.
func TestFrontierRender(t *testing.T) {
	r := &FrontierResult{Points: []FrontierPoint{
		{Estimator: "JRS(t=15)", Policy: "gate:1", GatedFrac: 0.2, Reduction: 0.5, SpecSaved: 0.03, IPCLost: 0.04},
	}}
	out := r.Render()
	for _, want := range []string{"frontier", "gate:1", "JRS(t=15)", "ipc-lost", "spec-saved"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestPolicyChangesCellAddress: two parameter sets differing only in the
// installed base-config policy must never share cell or trace
// addresses — policies perturb timing.
func TestPolicyChangesCellAddress(t *testing.T) {
	plain := frontierParams()
	policied := frontierParams()
	var err error
	if policied.Pipeline.Policy, err = policy.Parse("gate:2"); err != nil {
		t.Fatal(err)
	}
	sp := runner.Spec{Experiment: "table3", Workload: "compress", Predictor: "mcfarling", Variant: "main"}
	if plain.CellAddress(sp) == policied.CellAddress(sp) {
		t.Error("cell address ignores the installed policy")
	}
	if plain.TraceAddress("compress", GshareSpec()) == policied.TraceAddress("compress", GshareSpec()) {
		t.Error("trace address ignores the installed policy")
	}
	// And a policied base config must force direct simulation: the
	// unpolicied recording no longer matches the policied timing.
	w, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	if policied.replayActive(w) {
		t.Error("replayActive true with a base-config policy installed")
	}
	if !plain.replayActive(w) {
		t.Error("replayActive false for the plain config (precondition)")
	}
}
