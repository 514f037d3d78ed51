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

// TestDirectRunsOpenSimulateSpans pins where cells simulate under
// -replay on. Every experiment of -exp all runs with a tracer, a cold
// cell cache and one trace cache across experiments, as simctrl runs
// them. A cell that simulates lists for its experiment changes the
// machine, the program or the predictor, or watches the run itself, so
// no recording serves it: it opens exactly one "simulate" span under
// its cell span. Every other cell opens none. Across the experiments,
// each recorded (workload, predictor) pair opens exactly one "record"
// span; in each experiment specctrl_runs_total counts one run per
// simulate or record span, and no run is left live in the progress view.
func TestDirectRunsOpenSimulateSpans(t *testing.T) {
	n := len(suite())
	all := func(string) bool { return true }
	policied := func(key string) bool { return strings.Contains(key, "|") } // a variant with a policy
	offDepth := fmt.Sprintf("/d%d", frontierParams().Pipeline.ResolveDelay)
	simulates := map[string]struct {
		cell func(key string) bool
		want int
	}{
		// A policy perturbs timing; each policy-free baseline is the
		// pair's default run.
		"abl-gating": {policied, 9 * n},
		"frontier":   {policied, frontierCells() - n},
		// A resolve delay off the default, the BTB front end, a
		// predictor no other experiment records, alternative-input
		// programs.
		"abl-depth":    {func(k string) bool { return !strings.HasSuffix(k, offDepth) }, 2 * (len(depthSweep) - 1) * n},
		"abl-indirect": {func(k string) bool { return strings.HasSuffix(k, "/btb") }, n},
		"abl-spechist": {func(k string) bool { return strings.Contains(k, "/gshare-nonspec/") }, n},
		"xinput":       {all, n},
		// boost folds the events of a live run in its tracer.
		"boost":     {all, n},
		"boost-mcf": {all, n},
		// Every smt cell is one smt.Run of its thread mix.
		"smt": {all, 3 * len(smtPolicies)}, // three thread mixes
	}
	traces := replay.NewCache(0, nil)
	records := map[string]int{} // "workload/predictor" → record spans
	for _, e := range Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			p := frontierParams()
			p.TraceCache = traces
			p.Cache = newMemoCells()
			p.Tracer = span.New(span.Options{})
			p.Obs = obs.NewRegistry()
			p.Run = obs.NewProgress()
			if _, err := e.Run(p); err != nil {
				t.Fatal(err)
			}
			spans := p.Tracer.Snapshot()
			runs := 0
			for _, s := range spans {
				switch s.Name {
				case "record":
					records[fmt.Sprintf("%v/%v", s.Attr("workload"), s.Attr("predictor"))]++
					runs++
				case "simulate":
					runs++
				}
			}
			if got := p.Obs.Counter("specctrl_runs_total", nil).Value(); got != uint64(runs) {
				t.Errorf("specctrl_runs_total = %d, want %d (one per simulate or record span)", got, runs)
			}
			if live := p.Run.Snapshot(); len(live) != 0 {
				t.Errorf("%d runs still live in the progress view after the experiment (first %s)", len(live), live[0].Run)
			}
			cells := map[span.SpanID]string{} // cell span → its key
			for _, s := range spans {
				if key, ok := strings.CutPrefix(s.Name, "cell:"); ok {
					cells[s.Context().Span] = key
				}
			}
			perCell := map[span.SpanID]int{}
			for _, s := range spans {
				if s.Name == "simulate" {
					perCell[s.Parent]++
				}
			}
			rule, listed := simulates[e.Name]
			want := 0
			for id, key := range cells {
				if !listed || !rule.cell(key) {
					if perCell[id] != 0 {
						t.Errorf("cell %s opened %d simulate spans, want 0", key, perCell[id])
					}
					continue
				}
				want++
				if perCell[id] != 1 {
					t.Errorf("cell %s opened %d simulate spans, want 1", key, perCell[id])
				}
			}
			if listed && want != rule.want {
				t.Errorf("%d cells simulate, want %d", want, rule.want)
			}
			for id, c := range perCell {
				if _, ok := cells[id]; !ok {
					t.Errorf("%d simulate spans outside any cell span", c)
				}
			}
		})
	}
	if len(records) == 0 {
		t.Error("no recording opened a record span")
	}
	for pair, n := range records {
		if n != 1 {
			t.Errorf("%s opened %d record spans, want 1", pair, n)
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
