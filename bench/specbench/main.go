// Command specbench is the end-to-end benchmark of the reproduction:
// it times full regenerations, estimator and policy sweeps, and the job
// service, checks every output against results_full.txt, and attributes
// the time to layers from spans and a CPU profile.
//
// Run it from the repository root through bench/run.sh, which builds it
// first:
//
//	bash bench/run.sh measure --workload regen-all --seed 1 --seconds 24 --trace 0
//	bash bench/run.sh run -workload policy-sweep -seed 1 -trace .bench_build/trace/ps
//	bash bench/run.sh bench -runs 5 -seed 1 -out .bench_build/a.json
//	bash bench/run.sh compare parent.json change.json
//
// See bench/README.md for the workloads, the metrics and how to compare
// two commits.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"specctrl/internal/obs/span"
)

const usage = `usage: specbench <command> [flags]

commands:
  run      one pass of a workload in this process; prints one JSON line
  measure  one benchmark run: passes in fresh child processes for about
           --seconds, then the medians at the reference host's speed
           (or, with --trace 1, the per-layer metrics of a traced pass)
  bench    repeated runs of every workload, with medians and quartiles
  compare  judge a change against its parent from two bench files
`

func main() {
	if len(os.Args) < 2 {
		fmt.Fprint(os.Stderr, usage)
		os.Exit(2)
	}
	cmds := map[string]func([]string) error{
		"run": cmdRun, "measure": cmdMeasure, "bench": cmdBench, "compare": cmdCompare,
	}
	cmd, ok := cmds[os.Args[1]]
	if !ok {
		fmt.Fprint(os.Stderr, usage)
		os.Exit(2)
	}
	if err := cmd(os.Args[2:]); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(os.Stderr, "specbench %s: %v\n", os.Args[1], err)
		}
		os.Exit(1)
	}
}

// readyLine is what `specbench run` prints on standard error once its
// set-up is done; the parent's set-up time ends when it reads the line.
const readyLine = "specbench: ready"

// spanCapacity bounds a traced pass's span store. It is far above what
// any workload emits (serve-mixed, the largest, emits about 70,000), so
// no span is dropped; the store only grows as spans arrive.
const spanCapacity = 1 << 23

// passReport is the JSON line `specbench run` prints. OpMS and OpsS
// (the verified ops' latencies and how long they ran) let measure pool
// the ops of a run's passes.
type passReport struct {
	Workload  string    `json:"workload"`
	Seed      uint64    `json:"seed"`
	Ops       int       `json:"ops"`
	OpsFailed int       `json:"ops_failed"`
	Correct   bool      `json:"correct"`
	Metrics   metrics   `json:"metrics"`
	OpMS      []float64 `json:"op_latencies_ms"`
	OpsS      float64   `json:"ops_s"`
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "input seed")
	traceDir := fs.String("trace", "", "trace the pass; write layers.json, spans.json and cpu.pprof to this directory")
	setupOnly := fs.Bool("setup-only", false, "set up, report ready and tear down (a set-up time probe)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	ref, err := loadReference()
	if err != nil {
		return err
	}
	cfg := defaultConfig(w, *seed, ref)
	if *traceDir != "" {
		cfg.params.Tracer = span.New(span.Options{Capacity: spanCapacity})
	}
	sess, err := openSession(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, readyLine)
	if *setupOnly {
		return sess.close()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var prof bytes.Buffer
	var profW io.Writer
	if *traceDir != "" {
		profW = &prof
	}
	res, err := sess.pass(ctx, profW)
	if cerr := sess.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	rep := passReport{
		Workload: w.name, Seed: *seed, Ops: res.ops, OpsFailed: res.failed,
		Correct: res.failed == 0 && res.whole, Metrics: res.metrics(),
		OpMS: res.opMS, OpsS: res.opsTime().Seconds(),
	}
	if *traceDir != "" {
		if err := addLayers(&rep, res, cfg.params.Tracer, prof.Bytes(), *traceDir); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// addLayers folds a traced pass's spans and CPU profile into per-layer
// metrics, adds them to rep, and writes the trace files into dir.
func addLayers(rep *passReport, res passResult, tr *span.Tracer, profile []byte, dir string) error {
	st := tr.Stats()
	if st.Dropped > 0 {
		return fmt.Errorf("span store dropped %d spans; raise spanCapacity", st.Dropped)
	}
	spans := tr.Snapshot()
	samples, err := readCPUProfile(bytes.NewReader(profile))
	if err != nil {
		return err
	}
	byLayer, byPackage := foldCPU(samples)
	lm := layerMetrics(res, spans, byLayer)
	for k, v := range lm {
		rep.Metrics[k] = v
	}
	doc := layersDoc{
		Workload: rep.Workload, Seed: rep.Seed, WallS: res.wall.Seconds(),
		CPUByLayer: byLayer, CPUByPackage: byPackage,
		Spans: foldSpans(spans), SpanStore: st, Metrics: lm,
	}
	return writeTrace(dir, doc, spans, profile)
}
