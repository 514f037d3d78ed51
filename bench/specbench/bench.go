package main

import (
	"bufio"
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
	"runtime"
	"strings"
	"syscall"
	"time"
)

// env records where a set of runs was made.
type env struct {
	Commit     string    `json:"commit"`
	Go         string    `json:"go"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"nproc"`
	CPU        string    `json:"cpu"`
	OS         string    `json:"os"`
	Arch       string    `json:"arch"`
	Date       time.Time `json:"date"`
}

func environment(dir string) env {
	e := env{
		Commit: "unknown", Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), CPU: "unknown", OS: runtime.GOOS, Arch: runtime.GOARCH,
		Date: time.Now().UTC(),
	}
	if out, err := exec.Command("git", "-C", dir, "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// runRecord is one measure run inside a bench file. HostSlowdown is the
// run's host slowdown, which its metrics were rescaled by (see
// atReferenceSpeed).
type runRecord struct {
	Workload     string    `json:"workload"`
	Index        int       `json:"index"`
	Start        time.Time `json:"start"`
	HostSlowdown float64   `json:"host_slowdown"`
	result
}

// summary is one workload × metric over a bench file's runs.
type summary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// benchFile is what `specbench bench` writes and `compare` reads.
type benchFile struct {
	Env     env                           `json:"env"`
	Seed    uint64                        `json:"seed"`
	Seconds int                           `json:"seconds"`
	Runs    []runRecord                   `json:"runs"`
	Summary map[string]map[string]summary `json:"summary"`
}

// side is one build being benchmarked and the file its runs go to.
type side struct {
	c    child
	out  string
	file benchFile
}

func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	runs := fs.Int("runs", 5, "runs per workload")
	seed := fs.Uint64("seed", 1, "input seed for every run (seed 2 is held out for claims)")
	out := fs.String("out", "", "write this checkout's runs here (required)")
	against := fs.String("against", "", "another checkout (the parent) to run in alternating pairs with this one")
	againstOut := fs.String("against-out", "", "write the -against checkout's runs here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" || (*against == "") != (*againstOut == "") {
		return errors.New("-out is required, and -against needs -against-out")
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	names := spec.workloadNames()
	for _, n := range names {
		if _, err := lookupWorkload(n); err != nil {
			return err
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	sides := []*side{{c: child{bin: self, dir: "."}, out: *out}}
	if *against != "" {
		bin, err := buildAt(*against)
		if err != nil {
			return err
		}
		sides = append(sides, &side{c: child{bin: bin, dir: *against}, out: *againstOut})
	}
	for _, s := range sides {
		s.file = benchFile{Env: environment(s.c.dir), Seed: *seed, Seconds: spec.RunSeconds}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	for i := range *runs {
		for _, name := range names {
			for k := range sides {
				// Alternate which side of a pair runs first.
				s := sides[(k+i)%len(sides)]
				start := time.Now()
				r, slowdown, err := measure(ctx, s.c, name, *seed, spec.RunSeconds, false)
				if err != nil {
					return err
				}
				s.file.Runs = append(s.file.Runs, runRecord{Workload: name, Index: i, Start: start, HostSlowdown: slowdown, result: r})
				fmt.Fprintf(os.Stderr, "specbench: %s run %d/%d (%s): wall_s %.3f at host slowdown %.3f, failed %d of %d\n",
					name, i+1, *runs, s.c.dir, r.Metrics["wall_s"].Value, slowdown, r.Failed, r.Attempted)
			}
		}
	}
	for _, s := range sides {
		s.file.Summary = summarize(s.file.Runs)
		data, err := json.MarshalIndent(s.file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(s.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("%s (%s, commit %s)\n", s.out, s.c.dir, s.file.Env.Commit)
		printSummary(os.Stdout, names, s.file.Summary)
	}
	return nil
}

// buildAt builds the specbench of the checkout at dir with that
// checkout's own bench/run.sh and returns the binary's path.
func buildAt(dir string) (string, error) {
	cmd := exec.Command("bash", "bench/run.sh", "build")
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building specbench in %s: %w", dir, err)
	}
	return filepath.Abs(filepath.Join(dir, buildDir, "specbench"))
}

// summarize computes each workload × metric's median and quartiles.
func summarize(runs []runRecord) map[string]map[string]summary {
	vals := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			vals[r.Workload][name] = append(vals[r.Workload][name], m.Value)
			units[name] = m.Unit
		}
	}
	out := map[string]map[string]summary{}
	for w, byMetric := range vals {
		out[w] = map[string]summary{}
		for name, xs := range byMetric {
			q1, q3 := quartiles(xs)
			out[w][name] = summary{Unit: units[name], N: len(xs), Median: median(xs), Q1: q1, Q3: q3}
		}
	}
	return out
}

func printSummary(w io.Writer, workloads []string, sum map[string]map[string]summary) {
	fmt.Fprintf(w, "%-16s %-13s %-5s %12s %12s %12s %8s %3s\n", "workload", "metric", "unit", "median", "q1", "q3", "spread", "n")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			s, ok := sum[wl][d.name]
			if !ok {
				continue
			}
			sp := 0.0
			if s.Median != 0 {
				sp = (s.Q3 - s.Q1) / s.Median
			}
			fmt.Fprintf(w, "%-16s %-13s %-5s %12.4f %12.4f %12.4f %7.2f%% %3d\n",
				wl, d.name, s.Unit, s.Median, s.Q1, s.Q3, 100*sp, s.N)
		}
	}
}
