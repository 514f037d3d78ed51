package experiments

import (
	"io"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"specctrl/internal/conf"
	"specctrl/internal/obs"
	"specctrl/internal/pipeline"
	"specctrl/internal/replay"
	"specctrl/internal/trace"
	"specctrl/internal/workload"
)

// TestBaseStatsMatchesDirect is the rule every trace-served default run
// rests on: baseStats equals runOne(w, spec) field for field, and
// sitesFor equals the site profile a CollectSiteStats run collects, for
// every predictor, under the default pipeline and under non-default
// base configurations (which the trace address keys separately).
func TestBaseStatsMatchesDirect(t *testing.T) {
	configs := []struct {
		name  string
		apply func(*Params)
		names []string // workloads; nil = the suite
	}{
		{"default", func(*Params) {}, nil},
		{"resolve5", func(p *Params) { p.Pipeline.ResolveDelay = 5 }, []string{"compress", "go", "xlisp"}},
		{"indirect", func(p *Params) { p.Pipeline.IndirectPrediction = true }, []string{"gcc", "xlisp"}},
	}
	for _, c := range configs {
		rep := frontierParams()
		c.apply(&rep)
		rep.TraceCache = replay.NewCache(0, nil)
		direct := rep
		direct.Replay = ReplayOff
		names := c.names
		if names == nil {
			names = suiteNames()
		}
		for _, name := range names {
			w, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range AllPredictors() {
				want, err := rep.runOne(w, spec)
				if err != nil {
					t.Fatal(err)
				}
				got, err := rep.baseStats(w, spec)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s/%s: baseStats differs from runOne:\n got %+v\nwant %+v",
						c.name, name, spec.Name, got, want)
				}
				wantSites, err := direct.sitesFor(w, spec)
				if err != nil {
					t.Fatal(err)
				}
				gotSites, err := rep.sitesFor(w, spec)
				if err != nil {
					t.Fatal(err)
				}
				if len(wantSites) == 0 || !reflect.DeepEqual(gotSites, wantSites) {
					t.Errorf("%s %s/%s: trace sites (%d) differ from the profiling run's (%d)",
						c.name, name, spec.Name, len(gotSites), len(wantSites))
				}
			}
		}
	}
}

// TestBaseStatsCopies: the trace cache's base stats are shared, so each
// baseStats result must be a private copy.
func TestBaseStatsCopies(t *testing.T) {
	p := frontierParams()
	p.TraceCache = replay.NewCache(0, nil)
	w, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.baseStats(w, GshareSpec())
	if err != nil {
		t.Fatal(err)
	}
	a.Cycles = 0
	b, err := p.baseStats(w, GshareSpec())
	if err != nil {
		t.Fatal(err)
	}
	if b.Cycles == 0 {
		t.Error("baseStats handed out the cached stats, not a copy")
	}
}

// TestAblationDepthSimulatesOnlyOtherDepths: at the configured resolve
// depth an abl-depth cell is the pair's default run, served from its
// recorded trace, so only the 48 cells at the other three depths
// simulate; the 16 default-depth cells cost one recording per (workload,
// predictor). The render matches direct simulation.
func TestAblationDepthSimulatesOnlyOtherDepths(t *testing.T) {
	p := frontierParams()
	p.TraceCache = replay.NewCache(0, nil)
	var sims, records atomic.Int64
	p.Progress = func(msg string) {
		switch {
		case strings.HasPrefix(msg, "depth "), strings.HasPrefix(msg, "run "):
			sims.Add(1)
		case strings.HasPrefix(msg, "record "):
			records.Add(1)
		}
	}
	got, err := AblationDepth(p)
	if err != nil {
		t.Fatal(err)
	}
	if s, r := sims.Load(), records.Load(); s != 48 || r != 16 {
		t.Errorf("abl-depth: %d simulations and %d recordings, want 48 and 16", s, r)
	}
	direct := frontierParams()
	direct.Replay = ReplayOff
	want, err := AblationDepth(direct)
	if err != nil {
		t.Fatal(err)
	}
	if got.Render() != want.Render() {
		t.Errorf("abl-depth render differs from direct simulation:\n%s\nwant:\n%s", got.Render(), want.Render())
	}
}

// boostOracle is the per-event boost fold boostFold replaced: it keeps
// the last maxK committed events in a ring and, for every k, scans the
// last k of them.
func boostOracle(events []pipeline.BranchEvent, maxK int) (groups, hits []uint64) {
	groups, hits = make([]uint64, maxK), make([]uint64, maxK)
	type ev struct{ lc, misp bool }
	ring := make([]ev, maxK)
	pos, filled := 0, 0
	for _, e := range events {
		if e.WrongPath {
			continue
		}
		ring[pos] = ev{lc: !e.HighConf, misp: !e.Correct()}
		pos = (pos + 1) % maxK
		if filled < maxK {
			filled++
		}
		for k := 1; k <= filled; k++ {
			allLC, anyMisp := true, false
			for j := 1; j <= k; j++ {
				idx := (pos - j + maxK) % maxK
				if !ring[idx].lc {
					allLC = false
					break
				}
				if ring[idx].misp {
					anyMisp = true
				}
			}
			if allLC {
				groups[k-1]++
				if anyMisp {
					hits[k-1]++
				}
			}
		}
	}
	return groups, hits
}

// TestBoostFoldMatchesOracle runs boost's configuration with both the
// streaming fold and a trace.Sink on the Tracer hook and checks the
// fold's per-k counts against the old fold over the sink's events.
func TestBoostFoldMatchesOracle(t *testing.T) {
	var deepHits uint64 // 4-deep runs with a misprediction, over every run
	for _, spec := range []PredictorSpec{GshareSpec(), McFarlingSpec()} {
		for _, name := range []string{"compress", "go"} {
			w, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, maxK := range []int{1, 4, 8} {
				p := frontierParams()
				fold := newBoostFold(maxK)
				sink := trace.NewSink(io.Discard)
				p.Pipeline.Tracer = obs.MultiSink(fold, sink)
				if _, err := p.runOne(w, spec, SatCntFor(spec, conf.BothStrong)); err != nil {
					t.Fatal(err)
				}
				groups, hits := boostOracle(sink.Events(), maxK)
				if !reflect.DeepEqual(fold.groups, groups) || !reflect.DeepEqual(fold.hits, hits) {
					t.Errorf("%s/%s k<=%d: fold groups %v hits %v, oracle %v %v",
						name, spec.Name, maxK, fold.groups, fold.hits, groups, hits)
				}
				if maxK >= 4 {
					deepHits += hits[3]
				}
			}
		}
	}
	if deepHits == 0 {
		t.Error("no 4-deep low-confidence run held a misprediction; the check is vacuous")
	}
}
