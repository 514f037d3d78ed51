package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"specctrl/internal/obs/span"
)

// internalLayers charges the program's packages (under
// specctrl/internal/) to layers. Packages not listed fold into "other",
// so a new package shows up there until it is given a layer.
var internalLayers = map[string]string{
	"pipeline": "pipeline", "policy": "pipeline",
	"cache": "cache",
	"emu":   "emu", "isa": "emu", "workload": "emu", "synth": "emu", "rng": "emu",
	"mem":   "mem",
	"bpred": "bpred", "btb": "bpred",
	"conf":    "conf",
	"metrics": "metrics",
	"replay":  "replay", "trace": "replay",
	"experiments": "experiments", "gating": "experiments", "smt": "experiments",
	"eager": "experiments", "profile": "experiments", "plot": "experiments",
	"runner": "runner",
	"serve":  "serve",
	"obs":    "obs", "obs/span": "obs",
}

// stdLayers charges standard-library packages to layers: JSON encoding
// and the reflection and number formatting under it; the network,
// syscall and file path; and CPU profiling, which only the traced run
// pays.
var stdLayers = map[string]string{
	"encoding/json": "json", "reflect": "json", "strconv": "json",
	"net": "net", "net/http": "net", "net/textproto": "net", "net/url": "net",
	"syscall": "net", "internal/poll": "net", "internal/syscall/unix": "net", "os": "net",
	"runtime/pprof": "obs", "compress/flate": "obs", "compress/gzip": "obs",
	"sync": "runtime", "sync/atomic": "runtime", "internal/sync": "runtime",
}

// gcWords mark runtime functions that allocate or collect memory.
var gcWords = []string{
	"gc", "malloc", "mark", "sweep", "scav", "heap", "span", "mcache", "mcentral",
	"scan", "grey", "findobject", "barrier", "wbbuf", "newobject", "newarray",
	"makeslice", "growslice", "memclr", "nextfree", "assist", "refill", "page",
	"rawstring", "rawbyteslice", "rawruneslice", "makemap",
}

// funcPackage returns the import path of the package a profiled
// function name belongs to.
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf returns the layer a profile sample whose leaf frame is fn is
// charged to.
func layerOf(fn string) string {
	pkg := funcPackage(fn)
	if sub, ok := strings.CutPrefix(pkg, "specctrl/internal/"); ok {
		if l, ok := internalLayers[sub]; ok {
			return l
		}
		return "other"
	}
	switch {
	case pkg == "main":
		return "harness"
	case pkg == "runtime", pkg == fn && fn != "":
		// Bare names ("aeshashbody", "gcWriteBarrier") are the
		// runtime's assembly routines.
		name := strings.ToLower(strings.TrimPrefix(fn, "runtime."))
		for _, w := range gcWords {
			if strings.Contains(name, w) {
				return "gc"
			}
		}
		return "runtime"
	case strings.HasPrefix(pkg, "internal/runtime/"), strings.HasPrefix(pkg, "runtime/internal/"),
		strings.HasPrefix(pkg, "type:"), pkg == "internal/abi":
		return "runtime"
	case strings.HasPrefix(pkg, "vendor/golang.org/x/net/"):
		return "net"
	}
	if l, ok := stdLayers[pkg]; ok {
		return l
	}
	return "other"
}

// foldCPU charges every sample to its leaf frame's package and layer,
// in seconds.
func foldCPU(samples []profileSample) (byLayer, byPackage map[string]float64) {
	byLayer, byPackage = map[string]float64{}, map[string]float64{}
	for _, s := range samples {
		leaf := ""
		if len(s.stack) > 0 {
			leaf = s.stack[0]
		}
		byLayer[layerOf(leaf)] += s.cpu.Seconds()
		byPackage[funcPackage(leaf)] += s.cpu.Seconds()
	}
	return byLayer, byPackage
}

// spanStat is one span kind's count, summed duration and summed self
// time (duration minus the part its children cover).
type spanStat struct {
	N      int     `json:"n"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// spanKind folds per-item span names ("cell:<key>", "exp:<name>") to
// their kind.
func spanKind(name string) string {
	kind, _, _ := strings.Cut(name, ":")
	return kind
}

// foldSpans returns count, total and self time per span kind.
func foldSpans(spans []span.Span) map[string]*spanStat {
	kids := map[span.SpanID][]*span.Span{}
	for i := range spans {
		if p := spans[i].Parent; !p.IsZero() {
			kids[p] = append(kids[p], &spans[i])
		}
	}
	out := map[string]*spanStat{}
	for i := range spans {
		s := &spans[i]
		st := out[spanKind(s.Name)]
		if st == nil {
			st = &spanStat{}
			out[spanKind(s.Name)] = st
		}
		st.N++
		st.TotalS += s.Duration().Seconds()
		st.SelfS += (s.Duration() - covered(s, kids[s.Context().Span])).Seconds()
	}
	return out
}

// covered returns how much of s's interval the union of kids covers.
func covered(s *span.Span, kids []*span.Span) time.Duration {
	type interval struct{ from, to time.Time }
	var ivs []interval
	for _, k := range kids {
		from, to := k.Start, k.Finish
		if from.Before(s.Start) {
			from = s.Start
		}
		if to.After(s.Finish) {
			to = s.Finish
		}
		if to.After(from) {
			ivs = append(ivs, interval{from, to})
		}
	}
	slices.SortFunc(ivs, func(a, b interval) int { return a.from.Compare(b.from) })
	var total time.Duration
	var cur interval
	for i, iv := range ivs {
		switch {
		case i == 0:
			cur = iv
		case iv.from.After(cur.to):
			total += cur.to.Sub(cur.from)
			cur = iv
		case iv.to.After(cur.to):
			cur.to = iv.to
		}
	}
	if len(ivs) > 0 {
		total += cur.to.Sub(cur.from)
	}
	return total
}

// layerMetrics computes every per-layer metric of a traced pass from
// its result, its spans and its CPU profile folded by layer.
func layerMetrics(res passResult, spans []span.Span, cpu map[string]float64) metrics {
	m := metrics{}
	total := 0.0
	for _, l := range cpuLayers {
		m.set("cpu."+l+"_s", "s", cpu[l])
		total += cpu[l]
	}
	m.set("cpu.total_s", "s", total)

	sum := map[string]float64{}
	count := map[string]int{}
	exp := map[string]float64{}
	var hits, lookups, cells, stolen int
	var cellRun, cellWait, maxCell float64
	// A grid's cells share their wait spans' start (the enqueue time);
	// a cell starts exactly when its wait span ends.
	type gridKey struct {
		parent   span.SpanID
		enqueued int64
	}
	type cellKey struct {
		parent  span.SpanID
		key     string
		started int64
	}
	gridOf := map[cellKey]gridKey{}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "wait:") {
			key, _ := s.Attr("key").(string)
			gridOf[cellKey{s.Parent, key, s.Finish.UnixNano()}] = gridKey{s.Parent, s.Start.UnixNano()}
		}
	}
	gridEnd := map[gridKey]time.Time{}
	for _, s := range spans {
		d := s.Duration().Seconds()
		sum[s.Name] += d
		count[s.Name]++
		switch {
		case s.Name == "trace" || s.Name == "arch":
			lookups++
			if s.Attr("outcome") == "hit" {
				hits++
			}
		case strings.HasPrefix(s.Name, "exp:"):
			exp[strings.TrimPrefix(s.Name, "exp:")] += d
		case strings.HasPrefix(s.Name, "wait:"):
			cellWait += d
		case strings.HasPrefix(s.Name, "cell:"):
			cells++
			cellRun += d
			maxCell = max(maxCell, d)
			if s.Attr("stolen") == true {
				stolen++
			}
			key, _ := s.Attr("key").(string)
			if g, ok := gridOf[cellKey{s.Parent, key, s.Start.UnixNano()}]; ok && s.Finish.After(gridEnd[g]) {
				gridEnd[g] = s.Finish
			}
		}
	}
	for _, name := range []string{"simulate", "record", "replay"} {
		m.set("span."+name+"_s", "s", sum[name])
		m.set("span."+name+"_n", "count", float64(count[name]))
	}
	m.set("span.arch_record_s", "s", sum["arch-record"])
	m.set("span.arch_replay_s", "s", sum["arch-replay"])
	m.set("span.merge_s", "s", sum["merge"])
	m.set("replay.trace_hit_ratio", "ratio", ratio(hits, lookups))

	gridWall := 0.0
	for g, end := range gridEnd {
		gridWall += end.Sub(time.Unix(0, g.enqueued)).Seconds()
	}
	m.set("runner.cell_run_s", "s", cellRun)
	m.set("runner.cell_wait_s", "s", cellWait)
	m.set("runner.cells_n", "count", float64(cells))
	m.set("runner.stolen_n", "count", float64(stolen))
	m.set("runner.max_cell_s", "s", maxCell)
	utilization := 0.0
	if gridWall > 0 {
		utilization = cellRun / (float64(res.poolWidth) * gridWall)
	}
	m.set("runner.utilization", "ratio", utilization)
	for _, name := range allExperiments() {
		m.set(expMetric(name), "s", exp[name])
	}

	sv := res.serve
	m.set("serve.submit_ms", "ms", median(sv.submitMS))
	m.set("serve.queue_ms", "ms", median(sv.queueMS))
	m.set("serve.exec_ms", "ms", median(sv.execMS))
	m.set("serve.result_ms", "ms", median(sv.resultMS))
	m.set("serve.store_hit_ratio", "ratio", ratio(sv.fromCache, sv.done))
	m.set("serve.cells_simulated_n", "count", float64(sv.simulated))
	m.set("serve.store_mb", "MiB", sv.storeMB)

	m.set("runtime.peak_rss_mb", "MiB", peakRSSMB())
	m.set("runtime.gc_n", "count", float64(res.gcN))
	m.set("runtime.alloc_mb", "MiB", res.allocMB)
	m.set("work.sim_runs_n", "count", float64(count["simulate"]+count["record"]+count["arch-record"]))
	m.set("work.cells_n", "count", float64(cells))
	_, pct := tail(res.opMS)
	m.set("op.tail_pct", "%", pct)
	m.set("op.samples_n", "count", float64(len(res.opMS)))
	return m
}

// ratio is n/d, or 0 when there is nothing to divide.
func ratio(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// layersDoc is layers.json: where one traced pass spent its time, by
// layer and package (CPU profile) and by span kind.
type layersDoc struct {
	Workload     string               `json:"workload"`
	Seed         uint64               `json:"seed"`
	WallS        float64              `json:"wall_s"`
	CPUByLayer   map[string]float64   `json:"cpu_s_by_layer"`
	CPUByPackage map[string]float64   `json:"cpu_s_by_package"`
	Spans        map[string]*spanStat `json:"spans"`
	SpanStore    span.Stats           `json:"span_store"`
	Metrics      metrics              `json:"metrics"`
}

// writeTrace writes a traced pass's layers.json, Chrome-trace spans
// (spans.json) and CPU profile (cpu.pprof) into dir.
func writeTrace(dir string, doc layersDoc, spans []span.Span, profile []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	layers, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	var chrome bytes.Buffer
	if err := span.WriteChrome(&chrome, spans); err != nil {
		return err
	}
	for name, data := range map[string][]byte{
		"layers.json": append(layers, '\n'),
		"spans.json":  chrome.Bytes(),
		"cpu.pprof":   profile,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	return nil
}
