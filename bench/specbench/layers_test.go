package main

import (
	"bytes"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"specctrl/internal/obs/span"
)

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"specctrl/internal/pipeline.(*Sim).Tick":             "pipeline",
		"specctrl/internal/policy.Gate.Decide":               "pipeline",
		"specctrl/internal/cache.(*Cache).Access":            "cache",
		"specctrl/internal/emu.(*CPU).Step":                  "emu",
		"specctrl/internal/mem.(*Memory).Load":               "mem",
		"specctrl/internal/bpred.(*Gshare).Predict":          "bpred",
		"specctrl/internal/conf.(*JRS).Estimate":             "conf",
		"specctrl/internal/metrics.Confusion.PVN":            "metrics",
		"specctrl/internal/replay.Replay":                    "replay",
		"specctrl/internal/experiments.Params.runGrid.func1": "experiments",
		"specctrl/internal/gating.Run":                       "experiments",
		"specctrl/internal/runner.(*deque).pop":              "runner",
		"specctrl/internal/serve.(*Server).handleSubmit":     "serve",
		"specctrl/internal/obs/span.(*Tracer).record":        "obs",
		"specctrl/internal/newlayer.F":                       "other",
		"encoding/json.(*decodeState).object":                "json",
		"reflect.Value.Field":                                "json",
		"strconv.ParseFloat":                                 "json",
		"net/http.(*conn).serve":                             "net",
		"internal/poll.(*FD).Read":                           "net",
		"syscall.Syscall6":                                   "net",
		"os.(*File).Write":                                   "net",
		"vendor/golang.org/x/net/http/httpguts.ValidHeader":  "net",
		"runtime.mallocgc":                                   "gc",
		"runtime.scanobject":                                 "gc",
		"runtime.gcBgMarkWorker":                             "gc",
		"runtime.(*mspan).nextFreeIndex":                     "gc",
		"gcWriteBarrier":                                     "gc",
		"runtime.futex":                                      "runtime",
		"runtime.memmove":                                    "runtime",
		"aeshashbody":                                        "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":       "runtime",
		"sync.(*Mutex).Lock":                                 "runtime",
		"runtime/pprof.(*profileBuilder).addCPUData":         "obs",
		"main.(*client).await":                               "harness",
		"sort.Sort":                                          "other",
		"":                                                   "other",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
	for _, l := range internalLayers {
		if !slices.Contains(cpuLayers, l) {
			t.Errorf("internal layer %q is not reported", l)
		}
	}
	for _, l := range stdLayers {
		if !slices.Contains(cpuLayers, l) {
			t.Errorf("standard-library layer %q is not reported", l)
		}
	}
}

//go:noinline
func spin(d time.Duration) (n int) {
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

// TestReadCPUProfile decodes a real profile from this process and finds
// the function that burned the CPU.
func TestReadCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := readCPUProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin time.Duration
	for _, s := range samples {
		total += s.cpu
		// A test binary names package main by its import path.
		if slices.ContainsFunc(s.stack, func(fn string) bool { return strings.HasSuffix(fn, "specbench.spin") }) {
			inSpin += s.cpu
		}
	}
	if total == 0 || inSpin == 0 {
		t.Fatalf("%d samples, %v total, %v under spin", len(samples), total, inSpin)
	}
	if _, err := readCPUProfile(bytes.NewReader([]byte("not gzip"))); err == nil {
		t.Error("garbage accepted as a profile")
	}
}

func TestFoldSpansSelfTime(t *testing.T) {
	tr := span.New(span.Options{})
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.Root("exp:table2")
	root.Start = at(0)
	// Two overlapping children cover [10, 60) and one more [80, 90); a
	// fourth sticks out past the parent and counts only for [95, 100).
	// That covers 65 of the root's 100 ms.
	for _, iv := range [][2]int{{10, 50}, {30, 60}, {80, 90}} {
		c := tr.Child(root.Context(), "cell:k")
		c.Start = at(iv[0])
		c.EndAt(at(iv[1]))
	}
	late := tr.Child(root.Context(), "wait:k")
	late.Start = at(95)
	late.EndAt(at(120))
	root.EndAt(at(100))
	got := foldSpans(tr.Snapshot())
	want := map[string]spanStat{
		"exp":  {N: 1, TotalS: 0.100, SelfS: 0.035},
		"cell": {N: 3, TotalS: 0.080, SelfS: 0.080},
		"wait": {N: 1, TotalS: 0.025, SelfS: 0.025},
	}
	for k, w := range want {
		g := got[k]
		if g == nil || g.N != w.N || !near(g.TotalS, w.TotalS) || !near(g.SelfS, w.SelfS) {
			t.Errorf("%s: got %+v, want %+v", k, g, w)
		}
	}
}

func near(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }
