package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"specctrl/internal/conf"
	"specctrl/internal/obs"
	"specctrl/internal/obs/span"
	"specctrl/internal/replay"
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
		case strings.HasPrefix(msg, "run "):
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

// TestDirectRunsOpenSimulateSpans: cells that change the machine
// (abl-depth off the configured depth, abl-indirect's BTB front end)
// simulate through runOne, so each opens exactly one "simulate" span
// under its cell span, and the default-config cells simulate nothing.
func TestDirectRunsOpenSimulateSpans(t *testing.T) {
	for _, tc := range []struct {
		exp      string
		simCells func(variant string) bool
		want     int
	}{
		{"abl-depth", func(v string) bool { return v != fmt.Sprintf("d%d", frontierParams().Pipeline.ResolveDelay) },
			2 * (len(depthSweep) - 1) * len(suite())},
		{"abl-indirect", func(v string) bool { return v == "btb" }, len(suite())},
	} {
		p := frontierParams()
		p.TraceCache = replay.NewCache(0, nil)
		p.Tracer = span.New(span.Options{})
		if _, err := Run(tc.exp, p); err != nil {
			t.Fatal(err)
		}
		spans := p.Tracer.Snapshot()
		cells := map[span.SpanID]string{} // cell span → its variant
		for _, s := range spans {
			if strings.HasPrefix(s.Name, "cell:") {
				key := strings.TrimPrefix(s.Name, "cell:")
				cells[s.Context().Span] = key[strings.LastIndex(key, "/")+1:]
			}
		}
		perCell := map[span.SpanID]int{}
		for _, s := range spans {
			if s.Name == "simulate" {
				perCell[s.Parent]++
			}
		}
		want := 0
		for id, variant := range cells {
			if !tc.simCells(variant) {
				if perCell[id] != 0 {
					t.Errorf("%s: default cell %s opened %d simulate spans, want 0", tc.exp, variant, perCell[id])
				}
				continue
			}
			want++
			if perCell[id] != 1 {
				t.Errorf("%s: cell %s opened %d simulate spans, want 1", tc.exp, variant, perCell[id])
			}
		}
		if want != tc.want {
			t.Errorf("%s: %d non-default cells, want %d", tc.exp, want, tc.want)
		}
	}
}

// boostOracle is the per-event boost fold boostFold replaced: it keeps
// the last maxK committed events in a ring and, for every k, scans the
// last k of them.
func boostOracle(events []obs.BranchEvent, maxK int) (groups, hits []uint64) {
	groups, hits = make([]uint64, maxK), make([]uint64, maxK)
	type ev struct{ lc, misp bool }
	ring := make([]ev, maxK)
	pos, filled := 0, 0
	for _, e := range events {
		if e.WrongPath {
			continue
		}
		ring[pos] = ev{lc: !e.HighConf, misp: e.Pred != e.Outcome}
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
// streaming fold and an event collector on the Tracer hook and checks
// the fold's per-k counts against the old fold over the collected
// events.
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
				var events []obs.BranchEvent
				p.Pipeline.Tracer = obs.MultiSink(fold, eventCollector(func(e obs.BranchEvent) { events = append(events, e) }))
				if _, err := p.runOne(w, spec, SatCntFor(spec, conf.BothStrong)); err != nil {
					t.Fatal(err)
				}
				groups, hits := boostOracle(events, maxK)
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

// eventCollector is an obs.Tracer that hands each event to a func.
type eventCollector func(obs.BranchEvent)

func (f eventCollector) Branch(e obs.BranchEvent) { f(e) }
func (f eventCollector) Close() error             { return nil }
