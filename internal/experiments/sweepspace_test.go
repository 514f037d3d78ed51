package experiments

import (
	"testing"

	"specctrl/internal/replay"
	"specctrl/internal/synth"
)

// sweepParams configures a sweepspace run small enough for tests while
// keeping the acceptance-scale profile count.
func sweepParams(n int) Params {
	p := smallParams()
	p.MaxCommitted = 30_000
	p.SynthN = n
	return p
}

// TestSweepSpaceDeterminism covers the acceptance contract: a
// 32-profile sweep renders byte-identically at Jobs 1 and Jobs 8, and
// under replay-backed vs direct evaluation.
func TestSweepSpaceDeterminism(t *testing.T) {
	serial := sweepParams(32)
	serial.Jobs = 1
	serial.TraceCache = replay.NewCache(0, nil)
	want, err := SweepSpace(serial)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != 32 {
		t.Fatalf("sweep has %d rows, want 32", len(want.Rows))
	}

	parallel := sweepParams(32)
	parallel.Jobs = 8
	parallel.TraceCache = replay.NewCache(0, nil)
	got, err := SweepSpace(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if want.Render() != got.Render() {
		t.Errorf("render differs between Jobs 1 and Jobs 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			want.Render(), got.Render())
	}

	direct := sweepParams(32)
	direct.Jobs = 8
	direct.Replay = ReplayOff
	off, err := SweepSpace(direct)
	if err != nil {
		t.Fatal(err)
	}
	if want.Render() != off.Render() {
		t.Errorf("render differs between replay and direct evaluation:\n--- replay ---\n%s\n--- direct ---\n%s",
			want.Render(), off.Render())
	}
}

// TestSweepSpaceExtraWorkloads: explicitly registered synth workloads
// join the sweep after the generated set, once, with their vectors
// shown when they have one.
func TestSweepSpaceExtraWorkloads(t *testing.T) {
	prof := synth.Profile{Seed: 0x5eed, Sites: 24, Density: 0.10, Taken: 0.7, Spread: 0.2}
	name, err := synth.Register(prof)
	if err != nil {
		t.Fatal(err)
	}
	tr := &synth.Trace{SitePCs: []int64{8, 16}, Events: []uint32{1, 2, 3, 0}}
	data, err := synth.EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	traceName, err := synth.FromTrace(data)
	if err != nil {
		t.Fatal(err)
	}

	p := sweepParams(2)
	p.Jobs = 4
	p.SynthWorkloads = []string{name, traceName, name} // duplicate collapses
	res, err := SweepSpace(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("sweep has %d rows, want 2 generated + 2 extras", len(res.Rows))
	}
	byName := map[string]SweepSpaceRow{}
	for _, r := range res.Rows {
		byName[r.Name] = r
	}
	if r, ok := byName[name]; !ok || r.Profile == nil || *r.Profile != prof {
		t.Errorf("profile-backed extra %s: row %+v", name, byName[name])
	}
	if r, ok := byName[traceName]; !ok || r.Profile != nil {
		t.Errorf("trace-backed extra %s should have no vector: row %+v", traceName, byName[traceName])
	}
	if _, err := SweepSpace(sweepParams(2)); err != nil {
		t.Fatalf("re-running without extras: %v", err)
	}

	bad := sweepParams(2)
	bad.SynthWorkloads = []string{"synth:not-registered"}
	if _, err := SweepSpace(bad); err == nil {
		t.Fatal("SweepSpace accepted an unregistered extra workload")
	}
}

// BenchmarkSweepSpace measures the whole sweepspace experiment at a
// reduced profile count (sweepSpace).
func BenchmarkSweepSpace(b *testing.B) { benchEval(b, sweepSpace) }
