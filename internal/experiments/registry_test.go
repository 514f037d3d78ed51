package experiments

import (
	"errors"
	"strings"
	"testing"

	"specctrl/internal/runner"
)

func TestOrderCoversRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range registry {
		if seen[e.Name] {
			t.Errorf("registry entry %q duplicated", e.Name)
		}
		seen[e.Name] = true
	}
}

func TestRegistryEntries(t *testing.T) {
	for _, e := range registry {
		if e.Name == "" || e.Desc == "" || e.Run == nil {
			t.Errorf("registry entry %q incomplete: %+v", e.Name, e)
		}
		if got, ok := Lookup(e.Name); !ok || got.Name != e.Name {
			t.Errorf("Lookup(%q) = %q, %v", e.Name, got.Name, ok)
		}
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
	for _, e := range registry {
		if e.Name == "fig1" || e.Name == "cost" {
			continue // analytic, no simulation grid
		}
		if _, err := e.Run(p); !errors.Is(err, ErrShardOnly) {
			t.Errorf("%s: got %v, want ErrShardOnly (driver bypasses the grid?)", e.Name, err)
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
