package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runLimit bounds one measure run, children included.
const runLimit = 175 * time.Second

// setupProbes is how many set-up-only children a run starts besides
// its passes, so set-up time is a median even when one pass fills the
// run.
const setupProbes = 40

// result is one benchmark run as the last line of `specbench measure`
// prints it.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func cmdMeasure(args []string) error {
	fs := flag.NewFlagSet("measure", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "run passes while the next one fits in this many seconds (at least one)")
	trace := fs.Int("trace", 0, "1: report the per-layer metrics of a traced pass instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	}
	bin, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()
	res, slowdown, err := measure(ctx, child{bin: bin, dir: "."}, *name, *seed, *seconds, *trace == 1)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "specbench: host slowdown %.4f\n", slowdown)
	return json.NewEncoder(os.Stdout).Encode(res)
}

// measure makes one benchmark run of a workload and returns its result
// and the host's slowdown over the run. The result's times and rates
// are at the reference host's speed (see atReferenceSpeed); the traced
// run also reports the slowdown itself as host.slowdown.
func measure(ctx context.Context, c child, workload string, seed uint64, seconds int, traced bool) (result, float64, error) {
	host := startHostSampler()
	res, err := runPasses(ctx, c, workload, seed, seconds, traced)
	slowdown := host.slowdown()
	if err != nil {
		return res, slowdown, err
	}
	res.Metrics.atReferenceSpeed(slowdown)
	if traced {
		res.Metrics.set("host.slowdown", "ratio", slowdown)
	}
	return res, slowdown, nil
}

// runPasses makes the passes of one benchmark run. Every pass runs in a
// fresh child process, so each starts with the program's process-wide
// caches cold, exactly like a simctrl invocation.
//
// Untraced, it starts setupProbes set-up-only children, then runs
// passes while the next one (assumed as long as the last) fits in
// seconds. It reports the median over the passes of every end-to-end
// metric, except that the op metrics pool the ops of all passes (so
// serve-mixed's tail percentile rests on three times the samples).
// Traced, it runs one untraced and one traced pass and reports the
// traced pass's per-layer metrics plus the tracing overhead.
func runPasses(ctx context.Context, c child, workload string, seed uint64, seconds int, traced bool) (result, error) {
	w, err := lookupWorkload(workload)
	if err != nil {
		return result{}, err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatUint(seed, 10)}
	res := result{Correct: true, Metrics: metrics{}}
	add := func(rep passReport) {
		res.Correct = res.Correct && rep.Correct
		res.Attempted += rep.Ops
		res.Failed += rep.OpsFailed
	}
	if traced {
		base, _, err := c.run(ctx, args...)
		if err != nil {
			return res, err
		}
		dir := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d", workload, seed))
		rep, _, err := c.run(ctx, append(args, "-trace", dir)...)
		if err != nil {
			return res, err
		}
		add(base)
		add(rep)
		for _, d := range perLayer() {
			if v, ok := rep.Metrics[d.name]; ok {
				res.Metrics[d.name] = v
			}
		}
		res.Metrics.set("trace_overhead_frac", "ratio", rep.Metrics["wall_s"].Value/base.Metrics["wall_s"].Value-1)
		return res, nil
	}

	var setups []float64
	for range setupProbes {
		_, setup, err := c.run(ctx, append(args, "-setup-only")...)
		if err != nil {
			return res, err
		}
		setups = append(setups, setup.Seconds())
	}
	var reps []passReport
	start := time.Now()
	for {
		t := time.Now()
		rep, setup, err := c.run(ctx, args...)
		if err != nil {
			return res, err
		}
		add(rep)
		reps = append(reps, rep)
		setups = append(setups, setup.Seconds())
		if time.Since(start)+time.Since(t) > time.Duration(seconds)*time.Second {
			break
		}
	}
	res.Metrics.set("setup_s", "s", median(setups))
	var opMS []float64
	opsS := 0.0
	for _, rep := range reps {
		opMS = append(opMS, rep.OpMS...)
		opsS += rep.OpsS
	}
	opMetrics(res.Metrics, opMS, opsS, w.experiments != nil)
	for _, d := range endToEnd {
		if _, done := res.Metrics[d.name]; done {
			continue
		}
		var vals []float64
		for _, rep := range reps {
			vals = append(vals, rep.Metrics[d.name].Value)
		}
		res.Metrics.set(d.name, d.unit, median(vals))
	}
	return res, nil
}

// child starts `specbench run` processes of one build (bin) in one
// checkout (dir).
type child struct{ bin, dir string }

// run runs one child to completion and returns its report (empty for a
// set-up probe) and its set-up time: from just before the exec until
// the child reports ready. The child's other standard error lines are
// passed through.
func (c child) run(ctx context.Context, args ...string) (passReport, time.Duration, error) {
	var rep passReport
	cmd := exec.CommandContext(ctx, c.bin, append([]string{"run"}, args...)...)
	cmd.Dir = c.dir
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return rep, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return rep, 0, err
	}
	var ready time.Time
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if sc.Text() == readyLine && ready.IsZero() {
			ready = time.Now()
			continue
		}
		fmt.Fprintln(os.Stderr, sc.Text())
	}
	_, _ = io.Copy(os.Stderr, stderr) // whatever a scan error left unread
	name := "specbench run " + strings.Join(args, " ")
	if err := cmd.Wait(); err != nil {
		return rep, 0, fmt.Errorf("%s: %w", name, err)
	}
	if ready.IsZero() {
		return rep, 0, errors.New(name + ": never reported ready")
	}
	if out := bytes.TrimSpace(stdout.Bytes()); len(out) > 0 {
		if err := json.Unmarshal(out, &rep); err != nil {
			return rep, 0, fmt.Errorf("%s: bad report: %w", name, err)
		}
	}
	return rep, ready.Sub(start), nil
}
