package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specctrl/internal/conf"
	"specctrl/internal/pipeline"
	"specctrl/internal/policy"
	"specctrl/internal/profile"
	"specctrl/internal/replay"
	"specctrl/internal/workload"
)

// statsGoldenFile holds one line per golden run: the run's name, its
// cycle count (for a readable diff) and a hash of every Stats field.
const statsGoldenFile = "testdata/stats_golden.txt"

// goldenPolicies are the policy columns of the golden grid: a gate, a
// throttle ladder and the eager boost, each changing fetch per cycle.
var goldenPolicies = []string{"gate:1", "throttle:4,2,1", "boost:2,4"}

// statsHash hashes every exported Stats field. JSON encodes each one,
// dereferences the Sites pointers and sorts the map keys, so the hash
// depends only on simulated values.
func statsHash(t *testing.T, st *pipeline.Stats) string {
	t.Helper()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// goldenEstimators is one estimator of every family the pipeline
// dispatches on its concrete type (JRS, a saturating-counters variant,
// pattern history, static) plus one it reaches only through the
// interface (distance). JRS comes first, so policies gate on it.
func goldenEstimators(p Params, spec PredictorSpec, static conf.Static) []conf.Estimator {
	return []conf.Estimator{
		conf.NewJRS(conf.DefaultJRS),
		SatCntFor(spec, conf.BothStrong),
		conf.NewPatternHistory(spec.HistBits),
		static,
		conf.NewDistance(3),
	}
}

// TestStatsGolden pins every Stats field of direct pipeline runs to
// values generated before the fetch and branch hot paths were
// optimized. results_full.txt prints only part of Stats (never the
// cache hit counts, the Sites map or most histograms), so byte-identical
// tables alone cannot show a hot-path change to be exact. The grid is
// the suite × {gshare, mcfarling, sag} × {no estimator, estimators with
// site statistics, each golden policy}, one indirect-prediction run per
// workload, a small-I-cache run on four workloads, and the SPRT bytes of
// one recording. A change that alters simulated behaviour on purpose
// regenerates testdata/stats_golden.txt from the grid output this test
// logs when it fails.
func TestStatsGolden(t *testing.T) {
	p := TestParams()
	var got []string
	run := func(name string, cfg pipeline.Config, w string, spec PredictorSpec) *pipeline.Stats {
		t.Helper()
		wl, err := workload.ByName(w)
		if err != nil {
			t.Fatal(err)
		}
		cfg.MaxCommitted = p.MaxCommitted
		sim, err := pipeline.New(cfg, buildProgram(wl), spec.New())
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got = append(got, fmt.Sprintf("%s cycles=%d %s", name, st.Cycles, statsHash(t, st)))
		return st
	}
	for _, w := range suiteNames() {
		for _, spec := range AllPredictors() {
			prefix := w + "/" + spec.Name + "/"
			run(prefix+"none", p.Pipeline, w, spec)

			cfg := p.Pipeline
			cfg.CollectSiteStats = true
			cfg.Estimators = goldenEstimators(p, spec, conf.Static{Threshold: profile.DefaultOptions().Threshold})
			base := run(prefix+"sites", cfg, w, spec)
			static := profile.FromSites(base.Sites, profile.DefaultOptions())

			for _, pol := range goldenPolicies {
				cfg := p.Pipeline
				cfg.Estimators = goldenEstimators(p, spec, static)
				var err error
				if cfg.Policy, err = policy.Parse(pol); err != nil {
					t.Fatal(err)
				}
				run(prefix+pol, cfg, w, spec)
			}
		}
		cfg := p.Pipeline
		cfg.IndirectPrediction = true
		cfg.Estimators = []conf.Estimator{conf.NewJRS(conf.DefaultJRS)}
		cfg.Policy, _ = policy.Parse("gate:1")
		run(w+"/gshare/indirect+gate:1", cfg, w, GshareSpec())
	}

	// A 256 B (32-word) 2-way I-cache, which these programs outgrow
	// (the largest suite program, gcc, is 118 words), so fetch runs
	// cache.Access's victim choice: the 64 kB default never evicts an
	// instruction block.
	for _, w := range []string{"compress", "gcc", "go", "xlisp"} {
		cfg := p.Pipeline
		cfg.ICache.SizeWords = 32
		cfg.Estimators = []conf.Estimator{conf.NewJRS(conf.DefaultJRS)}
		run(w+"/gshare/icache256", cfg, w, GshareSpec())
	}

	rec := replay.NewRecorder()
	cfg := p.Pipeline
	cfg.Estimators = []conf.Estimator{conf.NewJRS(conf.DefaultJRS), rec}
	cfg.Tracer = rec
	run("gcc/gshare/record", cfg, "gcc", GshareSpec())
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, fmt.Sprintf("gcc/gshare/sprt %x", sha256.Sum256(tr.Encode())))

	want, err := os.ReadFile(filepath.FromSlash(statsGoldenFile))
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	if len(wantLines) != len(got) {
		t.Fatalf("golden has %d lines, the grid produced %d:\n%s", len(wantLines), len(got), strings.Join(got, "\n"))
	}
	bad := 0
	for i := range got {
		if got[i] != wantLines[i] {
			bad++
			t.Errorf("stats differ from the golden:\n got %s\nwant %s", got[i], wantLines[i])
		}
	}
	if bad > 0 {
		t.Logf("full grid output:\n%s", strings.Join(got, "\n"))
	}
}
