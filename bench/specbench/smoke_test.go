package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"specctrl/internal/experiments"
	"specctrl/internal/obs/span"
)

// smokeScale is the committed-instruction budget of the smoke tests:
// small enough that all four workloads run in a few seconds.
const smokeScale = 20_000

func smokeParams() experiments.Params {
	p := experiments.DefaultParams()
	p.MaxCommitted = smokeScale
	p.Jobs = 2
	return p
}

// smokeReference renders every experiment at smoke scale, concatenated
// the way results_full.txt holds them at default scale.
var smokeReference = sync.OnceValues(func() (reference, error) {
	var b strings.Builder
	for _, name := range allExperiments() {
		r, err := experiments.Run(name, smokeParams())
		if err != nil {
			return "", err
		}
		b.WriteString(printed(r.Render()))
	}
	return reference(b.String()), nil
})

func mustReference(t *testing.T) reference {
	t.Helper()
	ref, err := smokeReference()
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// smokePass runs one pass of w at smoke scale through the same session
// API `specbench run` uses, traced when traceDir is set.
func smokePass(t *testing.T, name string, ref reference, traceDir string) passReport {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := passConfig{
		workload: w, seed: 1, params: smokeParams(), ref: ref,
		clients: 2, warmJobs: 5, storeDir: t.TempDir(),
	}
	var prof bytes.Buffer
	var profW io.Writer
	if traceDir != "" {
		cfg.params.Tracer = span.New(span.Options{Capacity: spanCapacity})
		profW = &prof
	}
	sess, err := openSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.pass(context.Background(), profW)
	if cerr := sess.close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	rep := passReport{
		Workload: name, Seed: 1, Ops: res.ops, OpsFailed: res.failed,
		Correct: res.failed == 0 && res.whole, Metrics: res.metrics(),
	}
	if traceDir != "" {
		if err := addLayers(&rep, res, cfg.params.Tracer, prof.Bytes(), traceDir); err != nil {
			t.Fatal(err)
		}
	}
	return rep
}

// TestSmoke runs every workload traced at smoke scale: every output must
// check out, and the pass must emit exactly the catalogued metrics (all
// but setup_s, trace_overhead_frac and host.slowdown, which measure adds
// around its child processes).
func TestSmoke(t *testing.T) {
	ref := mustReference(t)
	var want []string
	for _, d := range append(slices.Clone(endToEnd), perLayer()...) {
		if d.name != "setup_s" && d.name != "trace_overhead_frac" && d.name != "host.slowdown" {
			want = append(want, d.name)
		}
	}
	slices.Sort(want)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			rep := smokePass(t, w.name, ref, dir)
			if rep.Ops == 0 || rep.OpsFailed != 0 || !rep.Correct {
				t.Fatalf("ops %d, failed %d, correct %v", rep.Ops, rep.OpsFailed, rep.Correct)
			}
			var got []string
			for name, m := range rep.Metrics {
				got = append(got, name)
				if m.Unit == "" {
					t.Errorf("%s has no unit", name)
				}
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("emitted metrics differ from the catalogue:\n got %v\nwant %v", got, want)
			}
			for _, name := range []string{"wall_s", "cpu_s", "live_heap_mb", "cold_s", "ops_per_s", "op_ms", "op_tail_ms"} {
				if rep.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v; end-to-end metrics must never be 0", name, rep.Metrics[name].Value)
				}
			}
			for _, f := range []string{"layers.json", "spans.json", "cpu.pprof"} {
				if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestCorruptReferenceCountsFailures flips one byte inside table3's
// expected output: every op that renders table3 must then fail.
func TestCorruptReferenceCountsFailures(t *testing.T) {
	ref := mustReference(t)
	r, err := experiments.Run("table3", smokeParams())
	if err != nil {
		t.Fatal(err)
	}
	out := printed(r.Render())
	i := strings.Index(string(ref), out)
	if i < 0 {
		t.Fatal("table3 not in the smoke reference")
	}
	bad := []byte(ref)
	bad[i+len(out)/2] ^= 1
	corrupt := reference(bad)

	cases := []struct {
		workload string
		failed   int
	}{
		{"estimator-sweep", 1},
		{"regen-all", 1},
		// The cold round's table3 job, plus one per client among its
		// five warm jobs (each client runs every catalogue entry once).
		{"serve-mixed", 3},
		{"policy-sweep", 0},
	}
	for _, c := range cases {
		rep := smokePass(t, c.workload, corrupt, "")
		if rep.OpsFailed != c.failed || rep.Correct != (c.failed == 0) {
			t.Errorf("%s: %d of %d ops failed (correct %v); want %d failed",
				c.workload, rep.OpsFailed, rep.Ops, rep.Correct, c.failed)
		}
	}
}

func TestReferenceCheck(t *testing.T) {
	ref := reference("T1\n==\nx 1\n\nT2\n==\ny 2\n\n")
	for out, want := range map[string]bool{
		"T1\n==\nx 1\n":   true, // the printer adds the blank line
		"T2\n==\ny 2\n\n": true, // already has it
		"T1\n==\nx 2\n":   false,
		"T1\n==\n":        false,
	} {
		if got := ref.has(out); got != want {
			t.Errorf("has(%q) = %v, want %v", out, got, want)
		}
	}
}
