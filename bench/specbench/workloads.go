package main

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"time"

	"specctrl/internal/experiments"
	"specctrl/internal/serve"
)

// workload is one benchmark input set. Batch workloads run a list of
// experiments the way simctrl does; the serve workload drives the job
// service instead. BENCHMARK.json records why each one exists.
type workload struct {
	name string
	// experiments returns the batch's experiments for a seed, in run
	// order; nil marks the serve workload.
	experiments func(seed uint64) []string
	// whole marks a batch whose concatenated output must equal the
	// reference file exactly, not only contain each table.
	whole bool
}

// policySweep are the experiments that run speculation-control
// policies; policied runs always simulate directly, so pipeline Tick
// work shows here and trace-tier work does not.
var policySweep = []string{"abl-gating", "frontier", "boost", "boost-mcf", "smt", "eager"}

// estimatorSweep are the record-once/replay-many estimator sweeps,
// where the trace tier, codec and estimators do most of the work.
var estimatorSweep = []string{
	"table2", "table2-detail", "table3", "fig3", "fig4", "fig5", "auc",
	"patterns", "misest", "metrics", "cir", "tuned", "jrsmcf", "abl-width",
}

// serveCatalogue are the experiments serve-mixed jobs are drawn from.
var serveCatalogue = []string{"table2", "table3", "fig4", "fig6", "table4"}

var workloads = []workload{
	{name: "regen-all", experiments: func(uint64) []string { return allExperiments() }, whole: true},
	{name: "policy-sweep", experiments: permuted(policySweep)},
	{name: "estimator-sweep", experiments: permuted(estimatorSweep)},
	{name: "serve-mixed"},
}

func allExperiments() []string {
	var names []string
	for _, e := range experiments.Experiments() {
		names = append(names, e.Name)
	}
	return names
}

// permuted returns a list function that orders names by the seed, so
// each seed also checks that outputs do not depend on what ran before.
func permuted(names []string) func(uint64) []string {
	return func(seed uint64) []string {
		out := slices.Clone(names)
		r := rand.New(rand.NewPCG(seed, 0))
		r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// buildDir holds everything the benchmark builds or writes, relative
// to the repository root it runs in.
const buildDir = ".bench_build"

// warmJobsPerClient is how many warm jobs each serve-mixed client runs:
// with two clients, enough for ten samples beyond the 99th percentile,
// while the jobs the server retains (about half a megabyte each) stay
// near half a gigabyte of heap.
const warmJobsPerClient = 600

// passConfig is everything one pass of a workload needs.
type passConfig struct {
	workload workload
	seed     uint64
	// params sets the scale and pool width; a traced pass also sets
	// its Tracer.
	params experiments.Params
	ref    reference
	// clients is the number of serve-mixed closed-loop clients, each on
	// its own connection; warmJobs is how many jobs each one runs.
	clients, warmJobs int
	// storeDir is where serve-mixed creates its fresh result store.
	storeDir string
}

// defaultConfig is a pass at default scale with a pool, and a client
// count, as wide as the machine.
func defaultConfig(w workload, seed uint64, ref reference) passConfig {
	p := experiments.DefaultParams()
	p.Jobs = runtime.NumCPU()
	return passConfig{
		workload: w, seed: seed, params: p, ref: ref,
		clients: runtime.NumCPU(), warmJobs: warmJobsPerClient,
		storeDir: buildDir + "/tmp",
	}
}

// passResult is what one pass measured.
type passResult struct {
	ops, failed int
	// whole is false when a whole-reference batch's concatenated output
	// differs from the reference.
	whole bool
	// wall runs from the first timed call to the last verified output;
	// cold is the part before every catalogue entry was computed once;
	// warm is the rest (serve-mixed only).
	wall, cold, warm time.Duration
	cpu              time.Duration
	// opMS are the verified ops' latencies: experiments in a batch,
	// warm jobs in serve-mixed.
	opMS []float64
	// liveHeapMB is the heap after a forced GC at the end of the pass,
	// before teardown.
	liveHeapMB float64
	gcN        uint32
	allocMB    float64
	serve      serveStats
	poolWidth  int
}

// metrics returns the pass's end-to-end metrics (all but setup_s,
// which the parent process measures).
func (r passResult) metrics() metrics {
	m := metrics{}
	m.set("wall_s", "s", r.wall.Seconds())
	m.set("cpu_s", "s", r.cpu.Seconds())
	m.set("live_heap_mb", "MiB", r.liveHeapMB)
	m.set("cold_s", "s", r.cold.Seconds())
	opMetrics(m, r.opMS, r.opsTime().Seconds(), r.warm == 0)
	return m
}

// opsTime is how long the pass's ops ran: the warm phase in
// serve-mixed, the whole pass in a batch workload.
func (r passResult) opsTime() time.Duration {
	if r.warm > 0 {
		return r.warm
	}
	return r.wall
}

// opMetrics sets the op metrics of ops that took opMS and ran in opsS
// seconds: one pass's ops, or a run's passes pooled.
func opMetrics(m metrics, opMS []float64, opsS float64, batch bool) {
	// A warm job's latency does not depend on the jobs around it, so
	// the median is the typical one. A batch experiment's latency
	// depends on the seed's order (the first experiment to need a shared
	// trace records it), so only the mean compares across seeds.
	typical := median(opMS)
	if batch {
		typical = mean(opMS)
	}
	m.set("ops_per_s", "1/s", float64(len(opMS))/opsS)
	m.set("op_ms", "ms", typical)
	// A batch has too few ops for any tail percentile; its tail is then
	// its typical op (op.tail_pct reads 0).
	t, pct := tail(opMS)
	if pct == 0 {
		t = typical
	}
	m.set("op_tail_ms", "ms", t)
}

// session is one workload set up and ready to run a pass: for
// serve-mixed, a server listening on a fresh store.
type session struct {
	cfg   passConfig
	srv   *serve.Server
	store string
}

// openSession does the workload's set-up.
func openSession(cfg passConfig) (*session, error) {
	s := &session{cfg: cfg}
	if cfg.workload.experiments != nil {
		return s, nil
	}
	if err := os.MkdirAll(cfg.storeDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.storeDir, "store-")
	if err != nil {
		return nil, err
	}
	s.store = dir
	s.srv, err = serve.New(serve.Config{
		CacheDir: dir,
		Jobs:     cfg.params.Jobs,
		// The cold round submits the whole catalogue at once.
		QueueDepth: max(len(serveCatalogue), cfg.clients),
		Params:     cfg.params,
		Tracer:     cfg.params.Tracer,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return s, nil
}

// close tears the set-up down: drains the server and removes its store.
func (s *session) close() error {
	if s.srv == nil {
		return nil
	}
	err := s.srv.Drain()
	if rerr := os.RemoveAll(s.store); err == nil {
		err = rerr
	}
	return err
}

// pass runs the workload once and checks every output. When prof is
// non-nil it receives a CPU profile of the timed part.
func (s *session) pass(ctx context.Context, prof io.Writer) (passResult, error) {
	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			return passResult{}, err
		}
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	var res passResult
	var err error
	if names := s.cfg.workload.experiments; names != nil {
		res = s.batch(ctx, names(s.cfg.seed))
	} else {
		res, err = s.serveMixed(ctx)
	}
	res.cpu = cpuTime() - cpu0
	if prof != nil {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return res, err
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	res.liveHeapMB = float64(after.HeapAlloc) / (1 << 20)
	res.gcN = after.NumGC - before.NumGC
	res.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	res.poolWidth = s.cfg.params.Jobs
	return res, nil
}

// batch runs experiments one after another, as simctrl does, each
// inside a harness span, and checks each rendered table against the
// reference.
func (s *session) batch(ctx context.Context, names []string) passResult {
	p := s.cfg.params
	p.Ctx = ctx
	res := passResult{whole: true}
	var all strings.Builder
	start := time.Now()
	for _, name := range names {
		t0 := time.Now()
		sp := p.Tracer.Root("exp:" + name)
		p.SpanParent = sp.Context()
		r, err := experiments.Run(name, p)
		sp.End()
		res.ops++
		if err != nil {
			fmt.Fprintf(os.Stderr, "specbench: %s: %v\n", name, err)
			res.failed++
			continue
		}
		out := r.Render()
		all.WriteString(printed(out))
		if !s.cfg.ref.has(out) {
			fmt.Fprintf(os.Stderr, "specbench: %s: output not found in %s\n", name, referenceFile)
			res.failed++
			continue
		}
		res.opMS = append(res.opMS, msSince(t0))
	}
	res.wall = time.Since(start)
	res.cold = res.wall
	if s.cfg.workload.whole && all.String() != string(s.cfg.ref) {
		fmt.Fprintf(os.Stderr, "specbench: concatenated output differs from %s\n", referenceFile)
		res.whole = false
	}
	return res
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
