package cliflags

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"specctrl/internal/synth"
	"specctrl/internal/workload"
)

// TestFlagNamesPinned: the shared flag names are a compatibility
// surface — scripts and docs reference them — so registration must
// produce exactly these names.
func TestFlagNamesPinned(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	Jobs(fs, 4, "jobs usage")
	Shard(fs)
	CellsOut(fs)
	CellsIn(fs)
	Committed(fs, 0, "committed usage")
	RegisterObs(fs)
	Replay(fs)
	TraceCacheMB(fs)
	RegisterTrace(fs)
	RegisterSynth(fs)
	RegisterPolicy(fs)

	want := map[string]bool{
		"jobs": true, "shard": true, "cells-out": true, "cells-in": true,
		"committed": true, "metrics-addr": true, "progress": true,
		"replay": true, "trace-cache-mb": true,
		"trace-out": true, "profile-cells": true, "span-sample": true,
		"synth-profile": true, "synth-n": true, "ingest-trace": true,
		"policy": true,
	}
	got := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = true })
	for name := range want {
		if !got[name] {
			t.Errorf("flag -%s not registered", name)
		}
	}
	for name := range got {
		if !want[name] {
			t.Errorf("unexpected flag -%s registered", name)
		}
	}
}

func TestObsParsesAndStarts(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o := RegisterObs(fs)
	if err := fs.Parse([]string{"-progress", "250ms"}); err != nil {
		t.Fatal(err)
	}
	if *o.Progress != 250*time.Millisecond {
		t.Fatalf("-progress parsed to %v", *o.Progress)
	}
	s, err := o.Start("t", io.Discard, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	if s.Run == nil {
		t.Error("heartbeat requested but Started.Run is nil")
	}
	if s.Registry != nil {
		t.Error("no -metrics-addr given but a registry was started")
	}
}

// TestObsZeroValueStartsNothing: tests that build options structs
// directly (bypassing flag parsing) carry a zero Obs; Start must be a
// no-op, not a nil dereference.
func TestObsZeroValueStartsNothing(t *testing.T) {
	var o Obs
	s, err := o.Start("t", io.Discard, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	if s.Registry != nil || s.Run != nil {
		t.Error("zero Obs started observability")
	}
}

func TestParseReplay(t *testing.T) {
	for _, tc := range []struct {
		in, want string
		ok       bool
	}{
		{"", "on", true},
		{"on", "on", true},
		{"off", "off", true},
		{"auto", "", false},
		{"arch", "", false},
		{"events", "", false},
		{"ON", "", false},
		{"AUTO", "", false},
		{"bogus", "", false},
	} {
		got, err := ParseReplay(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseReplay(%q) error = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseReplay(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestLoadCellsMergesInOrder(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	// Minimal versioned cell files: empty maps merge to empty; a bad
	// path errors.
	for _, p := range []string{a, b} {
		if err := os.WriteFile(p, []byte(`{"version":1,"cells":{}}`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cells, err := LoadCells(a + "," + b)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 0 {
		t.Fatalf("expected empty merge, got %d cells", len(cells))
	}
	if _, err := LoadCells(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("LoadCells accepted a missing file")
	}
}

// TestSynthLoad: -synth-profile and -ingest-trace files register
// workloads and return their names in flag order (profiles first);
// bad inputs fail with a flag-named error.
func TestSynthLoad(t *testing.T) {
	dir := t.TempDir()
	prof := synth.Profile{Seed: 7, Sites: 16, Density: 0.1, Taken: 0.7, Spread: 0.2}
	profPath := filepath.Join(dir, "p.json")
	profJSON, err := json.Marshal(prof)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(profPath, profJSON, 0o644); err != nil {
		t.Fatal(err)
	}
	trc, err := synth.EncodeTrace(&synth.Trace{SitePCs: []int64{8, 16}, Events: []uint32{1, 2, 3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	trcPath := filepath.Join(dir, "t.spbt")
	if err := os.WriteFile(trcPath, trc, 0o644); err != nil {
		t.Fatal(err)
	}

	parse := func(t *testing.T, args ...string) Synth {
		t.Helper()
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		s := RegisterSynth(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("parse %v: %v", args, err)
		}
		return s
	}

	names, n, err := parse(t, "-synth-profile", profPath, "-ingest-trace", trcPath, "-synth-n", "5").Load()
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("n = %d, want 5", n)
	}
	if len(names) != 2 || names[0] != prof.WorkloadName() || !strings.HasPrefix(names[1], "synth:t-") {
		t.Errorf("names = %v, want [%s synth:t-...]", names, prof.WorkloadName())
	}
	for _, name := range names {
		if _, err := workload.ByName(name); err != nil {
			t.Errorf("loaded workload %s not resolvable: %v", name, err)
		}
	}

	// Loading the same files again is idempotent (content-addressed).
	again, _, err := parse(t, "-synth-profile", profPath, "-ingest-trace", trcPath).Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 2 || again[0] != names[0] || again[1] != names[1] {
		t.Errorf("second Load names = %v, want %v", again, names)
	}

	// LoadProfiles parses without registering.
	profs, err := parse(t, "-synth-profile", profPath).LoadProfiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(profs) != 1 || profs[0] != prof {
		t.Errorf("LoadProfiles = %+v, want [%+v]", profs, prof)
	}

	for _, tc := range []struct {
		name string
		args []string
	}{
		{"negative n", []string{"-synth-n", "-1"}},
		{"missing profile", []string{"-synth-profile", filepath.Join(dir, "nope.json")}},
		{"missing trace", []string{"-ingest-trace", filepath.Join(dir, "nope.spbt")}},
		{"bad profile json", []string{"-synth-profile", trcPath}},
		{"bad trace bytes", []string{"-ingest-trace", profPath}},
	} {
		if _, _, err := parse(t, tc.args...).Load(); err == nil {
			t.Errorf("%s: Load accepted %v", tc.name, tc.args)
		}
	}
}

func TestPolicyFlagsLoad(t *testing.T) {
	parse := func(args ...string) (PolicyFlags, error) {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		p := RegisterPolicy(fs)
		return p, fs.Parse(args)
	}
	p, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	if pol, err := p.Load(); err != nil || pol != nil {
		t.Errorf("no flags: Load() = %v, %v; want nil, nil", pol, err)
	}
	p, _ = parse("-policy", "gate:2")
	pol, err := p.Load()
	if err != nil || pol == nil || pol.Name() != "gate:2" {
		t.Errorf("gate:2: Load() = %v, %v", pol, err)
	}
	p, _ = parse("-policy", "throttle:4,2,1")
	pol, err = p.Load()
	if err != nil || pol == nil || pol.Name() != "throttle:4,2,1" {
		t.Errorf("throttle:4,2,1: Load() = %v, %v", pol, err)
	}
	if _, err := parse("-policy-levels", "4,2,1"); err == nil {
		t.Error("-policy-levels is registered")
	}
	p, _ = parse("-policy", "bogus:1")
	if _, err := p.Load(); err == nil {
		t.Error("bogus policy spec accepted")
	}
	// The zero PolicyFlags (never registered) loads to nil.
	if pol, err := (PolicyFlags{}).Load(); err != nil || pol != nil {
		t.Errorf("zero PolicyFlags: Load() = %v, %v; want nil, nil", pol, err)
	}
}
