// Command simserved serves the experiment harness as a long-running
// simulation service (see internal/serve): clients submit jobs over a
// versioned HTTP API, every grid cell is memoized in a
// content-addressed on-disk cache, and a bounded admission queue
// applies backpressure (429 + Retry-After) when saturated.
//
// Usage:
//
//	simserved -addr :8344 -cache-dir /var/lib/simserved
//	simctrl -server http://localhost:8344 -exp table2    # submit + render
//	curl http://localhost:8344/metrics                   # live metrics
//
// The same port serves the job API (/v1/jobs...), readiness (/readyz),
// and the standard observability endpoints (/metrics, /metrics.json,
// /healthz, /buildinfo, /debug/pprof/). Results are byte-identical to
// running simctrl locally with the same parameters; repeated
// submissions are served entirely from the cache.
//
// SIGTERM or SIGINT drains gracefully: in-flight cells finish, every
// unfinished job's completed cells are checkpointed under -drain-dir as
// -cells-in-loadable dumps, and the process exits 0. See
// docs/SERVING.md for the API reference and cache semantics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"specctrl/internal/cliflags"
	"specctrl/internal/experiments"
	"specctrl/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintf(os.Stderr, "simserved: %v\n", err)
		os.Exit(1)
	}
}

// run is main with its environment injected: stderr for logs and an
// optional stop channel tests can signal instead of SIGTERM. It returns
// after a graceful drain.
func run(args []string, stderr io.Writer, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("simserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8344", "listen address (use :0 for an ephemeral port)")
		addrFile  = fs.String("addr-file", "", "write the bound base URL to this file once listening")
		cacheDir  = fs.String("cache-dir", "simserved-cache", "content-addressed result cache directory")
		drainDir  = fs.String("drain-dir", "", "drain checkpoint directory (default: <cache-dir>/drain)")
		jobs      = cliflags.Jobs(fs, 0, "runner pool width per grid (0 = all CPUs)")
		jobConc   = fs.Int("job-concurrency", 2, "jobs executing concurrently")
		queue     = fs.Int("queue", 0, "admission queue depth (0 = 2x pool width)")
		jobTO     = fs.Duration("job-timeout", 0, "per-job execution timeout (0 = none)")
		retry     = fs.Duration("retry-after", 10*time.Second, "Retry-After hint on 429/503")
		committed = cliflags.Committed(fs, 0, "default committed instructions per run (0 = paper default 2M)")
		replayF   = cliflags.Replay(fs)
		cacheMB   = cliflags.TraceCacheMB(fs)
		traceF    = cliflags.RegisterTrace(fs)
		synthF    = cliflags.RegisterSynth(fs)
		policyF   = cliflags.RegisterPolicy(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Load registers -synth-profile / -ingest-trace workloads in the
	// process-wide registry, so the server can resolve the synth: names
	// that jobs reference.
	synthWs, synthN, err := synthF.Load()
	if err != nil {
		return err
	}

	replayMode, err := cliflags.ParseReplay(*replayF)
	if err != nil {
		return err
	}
	cfg := serve.Config{
		Addr:            *addr,
		CacheDir:        *cacheDir,
		DrainDir:        *drainDir,
		Jobs:            *jobs,
		JobConcurrency:  *jobConc,
		QueueDepth:      *queue,
		JobTimeout:      *jobTO,
		RetryAfter:      *retry,
		TraceCacheBytes: int64(*cacheMB) << 20,
		// serve.New installs a default tracer when the flags didn't ask
		// for one, so /debug/traces always works on a running server.
		Tracer: traceF.NewTracer(),
	}
	p := experiments.DefaultParams()
	if *committed > 0 {
		p.MaxCommitted = *committed
	}
	p.Replay = replayMode
	p.SynthN = synthN
	p.SynthWorkloads = synthWs
	pol, err := policyF.Load()
	if err != nil {
		return err
	}
	p.Pipeline.Policy = pol
	cfg.Params = p

	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(srv.URL()+"\n"), 0o644); err != nil {
			srv.Drain()
			return err
		}
	}
	fmt.Fprintf(stderr, "simserved: serving on %s (cache %s)\n", srv.URL(), *cacheDir)
	fmt.Fprintf(stderr, "simserved: job API /v1/jobs, metrics /metrics, readiness /readyz\n")

	// Block until SIGTERM/SIGINT or the test stop channel.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	const draining = "draining (in-flight cells finish, queued work is checkpointed)"
	select {
	case sig := <-sigc:
		fmt.Fprintf(stderr, "simserved: %v: %s\n", sig, draining)
	case <-stop:
		fmt.Fprintf(stderr, "simserved: stop requested: %s\n", draining)
	}
	signal.Stop(sigc) // a second signal during the drain kills the process
	if err := srv.Drain(); err != nil {
		return err
	}
	if err := traceF.Finish(srv.Tracer(), "simserved", stderr); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "simserved: drained\n")
	return nil
}
