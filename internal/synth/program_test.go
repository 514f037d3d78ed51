package synth

import (
	"reflect"
	"testing"
)

func TestBuildDeterministic(t *testing.T) {
	for _, p := range append(Space(1, 4), validProfile()) {
		a := MustBuild(p, 1<<30)
		b := MustBuild(p, 1<<30)
		if !reflect.DeepEqual(a.Code, b.Code) {
			t.Fatalf("%s: code images differ across builds", p.WorkloadName())
		}
		if !reflect.DeepEqual(a.Data, b.Data) {
			t.Fatalf("%s: data images differ across builds", p.WorkloadName())
		}
		if a.Entry != b.Entry {
			t.Fatalf("%s: entry differs across builds", p.WorkloadName())
		}
	}
}

func TestBuildRealizesDensity(t *testing.T) {
	for i, p := range Space(2, 6) {
		c, err := Measure(MustBuild(p, 1<<30), 100_000)
		if err != nil {
			t.Fatalf("profile %d: %v", i, err)
		}
		got, want := c.Density(), p.Density
		if got < want-0.02 || got > want+0.02 {
			t.Errorf("profile %d (%s): realized density %.3f, target %.3f",
				i, p.WorkloadName(), got, want)
		}
	}
}

func TestBuildDensityInfeasible(t *testing.T) {
	// 256 expensive global sites cannot reach density 0.40.
	p := Profile{Sites: 256, Density: 0.40, Taken: 0.5,
		GlobalFrac: 1, GlobalDepth: 4}
	if _, err := Build(p, 1); err == nil {
		t.Fatal("Build accepted an infeasible density")
	}
}

func TestSpaceDeterministicAndFeasible(t *testing.T) {
	a, b := Space(99, 32), Space(99, 32)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Space is not deterministic for a fixed seed")
	}
	if len(a) != 32 {
		t.Fatalf("Space returned %d profiles, want 32", len(a))
	}
	names := map[string]bool{}
	for i, p := range a {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %d invalid: %v", i, err)
		}
		if _, err := Build(p, 1); err != nil {
			t.Errorf("profile %d infeasible: %v", i, err)
		}
		if names[p.WorkloadName()] {
			t.Errorf("profile %d: duplicate name %s", i, p.WorkloadName())
		}
		names[p.WorkloadName()] = true
	}
}

func TestRegisterIdempotent(t *testing.T) {
	p := validProfile()
	p.Seed = 0x1de9107e47
	name1, err := Register(p)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	name2, err := Register(p)
	if err != nil {
		t.Fatalf("second Register: %v", err)
	}
	if name1 != name2 {
		t.Fatalf("Register returned %q then %q", name1, name2)
	}
	got, ok := ProfileFor(name1)
	if !ok || got != p {
		t.Fatalf("ProfileFor(%q) = %+v, %v", name1, got, ok)
	}
}
