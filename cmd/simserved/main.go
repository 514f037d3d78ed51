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
// Cluster mode (see internal/cluster and docs/CLUSTER.md) spreads jobs
// across machines while keeping that byte-identity:
//
//	simserved -coordinator -addr :8344 -cache-dir /var/lib/simserved
//	simserved -worker -join http://head:8344 -addr :0    # on each node
//
// A coordinator answers the same job API but scatters each grid as
// shard work units over joined workers; workers consult the
// coordinator's shared cell and trace caches before simulating and
// publish what they compute. In -worker mode, -addr serves only the
// worker's own observability endpoints.
//
// SIGTERM or SIGINT drains gracefully: in-flight cells finish, every
// unfinished job's completed cells are checkpointed under -drain-dir as
// -cells-in-loadable dumps (a draining worker hands its unit back to
// the coordinator instead), and the process exits 0. See
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
	"specctrl/internal/cluster"
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
		addr      = fs.String("addr", ":8344", "listen address (use :0 for an ephemeral port; in -worker mode, observability only)")
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
		clusterF  = cliflags.RegisterCluster(fs)
		synthF    = cliflags.RegisterSynth(fs)
		policyF   = cliflags.RegisterPolicy(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := clusterF.Validate(); err != nil {
		return err
	}
	// Load registers -synth-profile / -ingest-trace workloads in the
	// process-wide registry, so every mode — plain server, coordinator,
	// and worker — can resolve the synth: names that jobs reference.
	// (Workers must ingest the same -ingest-trace files as the
	// coordinator; profile-backed workloads additionally travel as
	// vectors inside each work unit. See docs/CLUSTER.md.)
	synthWs, synthN, err := synthF.Load()
	if err != nil {
		return err
	}

	if *clusterF.Worker {
		if *policyF.Spec != "" || *policyF.Levels != "" {
			// Workers rebuild their parameters from each scattered unit,
			// which carries the coordinator's policy spec.
			return fmt.Errorf("-%s applies to servers and coordinators; workers receive the policy per unit", cliflags.PolicyFlag)
		}
		return runWorker(clusterF, *addr, *addrFile, *jobs, int64(*cacheMB)<<20, traceF, stderr, stop)
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

	if *clusterF.Coordinator {
		return runCoordinator(cfg, *clusterF.Heartbeat, *addrFile, *cacheDir, traceF, stderr, stop)
	}

	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	if err := publishAddr(*addrFile, srv.URL(), srv.Drain); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "simserved: serving on %s (cache %s)\n", srv.URL(), *cacheDir)
	fmt.Fprintf(stderr, "simserved: job API /v1/jobs, metrics /metrics, readiness /readyz\n")

	awaitStop(stderr, stop, "draining (in-flight cells finish, queued work is checkpointed)")
	if err := srv.Drain(); err != nil {
		return err
	}
	if err := traceF.Finish(srv.Tracer(), "simserved", stderr); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "simserved: drained\n")
	return nil
}

// runCoordinator serves the job API in cluster-head mode: same API,
// but grids are scattered across joined workers before the local
// assembly pass.
func runCoordinator(cfg serve.Config, heartbeat time.Duration, addrFile, cacheDir string,
	traceF cliflags.Trace, stderr io.Writer, stop <-chan struct{}) error {
	co, err := cluster.New(cluster.Config{Serve: cfg, Heartbeat: heartbeat})
	if err != nil {
		return err
	}
	if err := publishAddr(addrFile, co.URL(), co.Drain); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "simserved: coordinating on %s (cache %s)\n", co.URL(), cacheDir)
	fmt.Fprintf(stderr, "simserved: job API /v1/jobs, workers join via /cluster/v1/workers, status /cluster/v1/status\n")

	awaitStop(stderr, stop, "draining (workers hand back units, unfinished jobs are checkpointed)")
	if err := co.Drain(); err != nil {
		return err
	}
	if err := traceF.Finish(co.Server().Tracer(), "simserved", stderr); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "simserved: drained\n")
	return nil
}

// runWorker joins a coordinator and executes shard units until
// signalled, then drains gracefully (the current unit is handed back
// for reassignment).
func runWorker(clusterF cliflags.Cluster, addr, addrFile string, jobsN int, traceCacheBytes int64,
	traceF cliflags.Trace, stderr io.Writer, stop <-chan struct{}) error {
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Coordinator:     *clusterF.Join,
		Node:            *clusterF.Node,
		Addr:            addr,
		Jobs:            jobsN,
		TraceCacheBytes: traceCacheBytes,
		Tracer:          traceF.NewTracer(),
	})
	if err != nil {
		return err
	}
	if err := publishAddr(addrFile, w.URL(), func() error { return w.Drain() }); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "simserved: worker %s joined %s", w.ID(), *clusterF.Join)
	if w.URL() != "" {
		fmt.Fprintf(stderr, " (metrics on %s/metrics)", w.URL())
	}
	fmt.Fprintln(stderr)

	awaitStop(stderr, stop, "draining (current unit is handed back to the coordinator)")
	if err := w.Drain(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "simserved: worker drained\n")
	return nil
}

// publishAddr writes the bound URL to addrFile (when requested),
// draining the just-started service if the write fails.
func publishAddr(addrFile, url string, drain func() error) error {
	if addrFile == "" {
		return nil
	}
	if err := os.WriteFile(addrFile, []byte(url+"\n"), 0o644); err != nil {
		drain()
		return err
	}
	return nil
}

// awaitStop blocks until SIGTERM/SIGINT or the test stop channel.
func awaitStop(stderr io.Writer, stop <-chan struct{}, what string) {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigc)
	select {
	case sig := <-sigc:
		fmt.Fprintf(stderr, "simserved: %v: %s\n", sig, what)
	case <-stop:
		fmt.Fprintf(stderr, "simserved: stop requested: %s\n", what)
	}
}
