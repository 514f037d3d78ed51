package experiments

import (
	"errors"
	"strings"
	"testing"

	"specctrl/internal/runner"
)

func TestOrderCoversRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range order {
		if _, ok := registry[name]; !ok {
			t.Errorf("order entry %q missing from registry", name)
		}
		if seen[name] {
			t.Errorf("order entry %q duplicated", name)
		}
		seen[name] = true
	}
	for name := range registry {
		if !seen[name] {
			t.Errorf("registry entry %q missing from presentation order", name)
		}
	}
}

func TestRegistryEntries(t *testing.T) {
	for name, e := range registry {
		if e.Desc == "" || e.Run == nil || e.Name != name {
			t.Errorf("registry entry %q incomplete: %+v", name, e)
		}
	}
	if len(Experiments()) != len(registry) {
		t.Errorf("Experiments() returns %d entries, registry has %d",
			len(Experiments()), len(registry))
	}
}

func TestLookupAndRunUnknown(t *testing.T) {
	if _, ok := Lookup("no-such-experiment"); ok {
		t.Error("Lookup accepted an unknown name")
	}
	if _, err := Run("no-such-experiment", TestParams()); err == nil {
		t.Error("Run accepted an unknown name")
	}
}

// TestShardOnlyCoverage proves every simulation-backed registry entry
// runs through the grid executor: under an active shard a grid driver
// must return ErrShardOnly instead of rendering. A sparse shard (most
// experiments own zero cells of it) keeps this fast.
func TestShardOnlyCoverage(t *testing.T) {
	p := TestParams()
	p.MaxCommitted = 40_000
	p.Shard = runner.Shard{Index: 63, Count: 64}
	p.Record = NewCellStore()
	for name, e := range registry {
		if name == "fig1" || name == "cost" {
			continue // analytic, no simulation grid
		}
		if _, err := e.Run(p); !errors.Is(err, ErrShardOnly) {
			t.Errorf("%s: got %v, want ErrShardOnly (driver bypasses the grid?)", name, err)
		}
	}
}

func TestAnalyticExperimentRuns(t *testing.T) {
	// fig1 and cost are pure computation: run them through the registry
	// path end-to-end.
	p := TestParams()
	for _, name := range []string{"fig1", "cost"} {
		r, err := Run(name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := r.Render()
		if !strings.Contains(out, "\n") || len(out) < 100 {
			t.Errorf("%s render suspiciously small:\n%s", name, out)
		}
	}
}
