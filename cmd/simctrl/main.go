// Command simctrl reproduces the tables and figures of "Confidence
// Estimation for Speculation Control" (Klauser, Grunwald, Manne,
// Pleszkun; ISCA 1998) on the built-in simulator and workload suite.
//
// Usage:
//
//	simctrl -exp table2                 # one experiment, default scale
//	simctrl -exp all -committed 5000000 # everything, bigger runs
//	simctrl -list                       # show available experiments
//
// Experiments are grids of independent cells (one simulation per
// workload × predictor × estimator-config point) executed on a
// worker pool. -jobs N sets the pool width (default: all CPUs);
// output is byte-identical at every job count. A grid can also be split
// across machines:
//
//	simctrl -exp table2 -shard 0/2 -cells-out s0.json   # machine A
//	simctrl -exp table2 -shard 1/2 -cells-out s1.json   # machine B
//	simctrl -exp table2 -cells-in s0.json,s1.json       # merge + render
//
// Or submitted to a simserved instance instead of simulating locally —
// the server memoizes every cell in a content-addressed cache, so
// repeated grids render without simulating at all, byte-identical to
// the local run:
//
//	simctrl -server http://localhost:8344 -exp table2
//
// See docs/REGENERATING.md for the full regeneration workflow and the
// determinism guarantees behind it, and docs/SERVING.md for the
// service.
//
// Long runs are observable while they execute: -progress prints a
// periodic heartbeat (committed instructions, IPC, misprediction rate,
// ETA) to stderr, and -metrics-addr serves live Prometheus/JSON
// metrics plus expvar and pprof over HTTP:
//
//	simctrl -exp all -committed 50000000 -progress 2s -metrics-addr :9090
//	curl http://localhost:9090/metrics
//
// Output is the paper-style text table for each experiment.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"specctrl/internal/cliflags"
	"specctrl/internal/experiments"
	"specctrl/internal/replay"
	"specctrl/internal/runner"
)

// printRendered writes one experiment's output, normalizing the
// trailing blank line exactly as the original serial CLI did. Both the
// local and -server paths go through it, which is what makes their
// stdout byte-identical.
func printRendered(w io.Writer, out string) {
	fmt.Fprint(w, out)
	if !strings.HasSuffix(out, "\n\n") {
		fmt.Fprintln(w)
	}
}

// localOnly holds the flags that configure only a local run; -server
// rejects each of them rather than silently ignoring it.
type localOnly struct {
	shard, cellsIn, policy, ingestTrace string
}

// serverConflict returns an error naming the first local-run-only flag
// given alongside -server, or nil when there is none.
func serverConflict(f localOnly) error {
	const atServer = "start simserved with it instead"
	for _, c := range []struct{ flag, value, hint string }{
		// A shard's cells exist only in its -cells-out file; a job
		// computes (or serves from the cache) every cell it renders.
		{cliflags.ShardFlag, f.shard, "run each shard locally with -" + cliflags.CellsOutFlag +
			" and merge with -" + cliflags.CellsInFlag},
		// Job submissions carry no cells; merge shard files locally.
		{cliflags.CellsInFlag, f.cellsIn, "merge cell files without -server"},
		// Job submissions carry no pipeline configuration; the server's
		// base policy is fixed at startup.
		{cliflags.PolicyFlag, f.policy, atServer},
		// Trace files cannot travel in a job submission (only profile
		// vectors can); ingest them on the server instead.
		{cliflags.IngestTraceFlag, f.ingestTrace, atServer},
	} {
		if c.value != "" {
			return fmt.Errorf("-%s is a local-run option; %s", c.flag, c.hint)
		}
	}
	return nil
}

func main() {
	var (
		exp       = flag.String("exp", "", "experiment to run (see -list), or 'all'")
		committed = cliflags.Committed(flag.CommandLine, 0, "committed instructions per run (0 = default 2M)")
		verbose   = flag.Bool("v", false, "print per-run progress to stderr")
		list      = flag.Bool("list", false, "list available experiments")
		obsFlags  = cliflags.RegisterObs(flag.CommandLine)
		jobs      = cliflags.Jobs(flag.CommandLine, runtime.NumCPU(), "parallel grid cells (output is identical at any value)")
		shard     = cliflags.Shard(flag.CommandLine)
		cellsOut  = cliflags.CellsOut(flag.CommandLine)
		cellsIn   = cliflags.CellsIn(flag.CommandLine)
		replayF   = cliflags.Replay(flag.CommandLine)
		cacheMB   = cliflags.TraceCacheMB(flag.CommandLine)
		traceF    = cliflags.RegisterTrace(flag.CommandLine)
		synthF    = cliflags.RegisterSynth(flag.CommandLine)
		policyF   = cliflags.RegisterPolicy(flag.CommandLine)
		server    = flag.String("server", "", "submit to a simserved base URL instead of simulating locally")
	)
	flag.Parse()

	if *list {
		entries := experiments.Experiments()
		sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
		for _, e := range entries {
			fmt.Printf("%-8s %s\n", e.Name, e.Desc)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "simctrl: -exp required (try -list)")
		flag.Usage()
		os.Exit(2)
	}

	names := []string{*exp}
	if *exp == "all" {
		names = nil
		for _, e := range experiments.Experiments() {
			names = append(names, e.Name)
		}
	}
	for _, name := range names {
		if _, ok := experiments.Lookup(name); !ok {
			fmt.Fprintf(os.Stderr, "simctrl: unknown experiment %q (try -list)\n", name)
			os.Exit(2)
		}
	}

	tracer := traceF.NewTracer()

	if *server != "" {
		if err := serverConflict(localOnly{
			shard:       *shard,
			cellsIn:     *cellsIn,
			policy:      *policyF.Spec,
			ingestTrace: *synthF.Traces,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "simctrl: %v\n", err)
			os.Exit(2)
		}
		synthProfiles, err := synthF.LoadProfiles()
		if err != nil {
			fmt.Fprintf(os.Stderr, "simctrl: %v\n", err)
			os.Exit(2)
		}
		err = runServerMode(serverOpts{
			base:          *server,
			names:         names,
			committed:     *committed,
			cellsOut:      *cellsOut,
			verbose:       *verbose,
			stdout:        os.Stdout,
			stderr:        os.Stderr,
			tracer:        tracer,
			synthN:        *synthF.N,
			synthProfiles: synthProfiles,
		})
		if ferr := traceF.Finish(tracer, "simctrl", os.Stderr); ferr != nil && err == nil {
			err = ferr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "simctrl: %v\n", err)
			os.Exit(1)
		}
		return
	}

	p := experiments.DefaultParams()
	if *committed > 0 {
		p.MaxCommitted = *committed
	}
	replayMode, err := cliflags.ParseReplay(*replayF)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simctrl: %v\n", err)
		os.Exit(2)
	}
	p.Replay = replayMode
	synthWs, synthN, err := synthF.Load()
	if err != nil {
		fmt.Fprintf(os.Stderr, "simctrl: %v\n", err)
		os.Exit(2)
	}
	p.SynthN = synthN
	p.SynthWorkloads = synthWs
	pol, err := policyF.Load()
	if err != nil {
		fmt.Fprintf(os.Stderr, "simctrl: %v\n", err)
		os.Exit(2)
	}
	p.Pipeline.Policy = pol
	if *verbose {
		p.Progress = func(msg string) { fmt.Fprintln(os.Stderr, msg) }
	}
	p.Jobs = *jobs
	if *shard != "" {
		sh, err := runner.ParseShard(*shard)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simctrl: %v\n", err)
			os.Exit(2)
		}
		if *cellsOut == "" {
			fmt.Fprintln(os.Stderr, "simctrl: -shard produces no rendered output; use -cells-out to keep the shard's cells")
			os.Exit(2)
		}
		p.Shard = sh
	}
	if *cellsOut != "" {
		p.Record = experiments.NewCellStore()
	}
	if *cellsIn != "" {
		cells, err := cliflags.LoadCells(*cellsIn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simctrl: %v\n", err)
			os.Exit(1)
		}
		p.Cells = cells
	}
	started, err := obsFlags.Start("simctrl", os.Stderr, tracer)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simctrl: %v\n", err)
		os.Exit(1)
	}
	defer started.Stop()
	p.Obs = started.Registry
	p.Run = started.Run
	p.Tracer = tracer
	if *cacheMB != 0 || p.Obs != nil {
		p.TraceCache = replay.NewCache(int64(*cacheMB)<<20, p.Obs)
	}

	for _, name := range names {
		// One root span per experiment: its cell, record and replay
		// spans all hang underneath in the exported trace.
		root := tracer.Root("exp:" + name)
		p.SpanParent = root.Context()
		r, err := experiments.Run(name, p)
		root.End()
		if errors.Is(err, experiments.ErrShardOnly) {
			fmt.Fprintf(os.Stderr, "simctrl: %s: shard %s computed (%d cells so far)\n",
				name, p.Shard, p.Record.Len())
			continue
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "simctrl: %s: %v\n", name, err)
			os.Exit(1)
		}
		printRendered(os.Stdout, r.Render())
	}
	if err := traceF.Finish(tracer, "simctrl", os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "simctrl: %v\n", err)
		os.Exit(1)
	}
	if p.Record != nil {
		data, err := p.Record.MarshalJSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "simctrl: encoding cells: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*cellsOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "simctrl: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "simctrl: wrote %d cells to %s\n", p.Record.Len(), *cellsOut)
	}
}
