package serve

import (
	"bytes"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"specctrl/internal/experiments"
	"specctrl/internal/obs"
)

// TestDrainCheckpointsJobs is the graceful-shutdown contract: draining
// with an in-flight job lets its running cells finish and persists the
// completed work as a -cells-in-loadable dump; a job still queued is
// drained with whatever it had (nothing). The dump must actually
// replay: feeding it back through Params.Cells re-renders without
// re-simulating the checkpointed cells.
func TestDrainCheckpointsJobs(t *testing.T) {
	before := runtime.NumGoroutine()

	// Pause the grid inside its second cell via the Progress hook (it
	// fires at cell start, before the simulation). With a serial Jobs=1
	// grid that pins the job mid-flight deterministically: one cell
	// completed, one executing, the rest undispatched — exactly the
	// state a real SIGTERM interrupts.
	inSecondCell := make(chan struct{})
	release := make(chan struct{})
	// Direct mode pins the Progress lines this test gates on: every
	// cell emits one (under replay, only a cell whose trace is not yet
	// cached does).
	params := testParams()
	params.Replay = experiments.ReplayOff
	cfg := Config{
		Addr:           "127.0.0.1:0",
		CacheDir:       t.TempDir(),
		Params:         params,
		Jobs:           1,
		JobConcurrency: 1, // second job stays queued
		QueueDepth:     4,
		Registry:       obs.NewRegistry(),
		runExperiment: func(name string, p experiments.Params) (experiments.Renderer, error) {
			runs := 0
			p.Progress = func(string) {
				runs++
				if runs == 2 {
					close(inSecondCell)
					<-release
				}
			}
			return experiments.Run(name, p)
		},
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Drain() }) // for early t.Fatal exits; idempotent

	running, _ := postJob(t, srv, `{"version":1,"experiments":["table3"]}`)
	queued, _ := postJob(t, srv, `{"version":1,"experiments":["table1"]}`)

	select {
	case <-inSecondCell: // one cell done, second blocked inside its compute
	case <-time.After(60 * time.Second):
		t.Fatal("job never reached its second cell")
	}

	// Drain concurrently: it must cancel dispatch, then wait for the
	// executing cell — which we are holding — to finish.
	drainErr := make(chan error, 1)
	go func() { drainErr <- srv.Drain() }()
	deadline := time.Now().Add(30 * time.Second)
	for srv.drainCtx.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("drain never cancelled the grid context")
		}
		time.Sleep(time.Millisecond)
	}
	close(release) // let the in-flight cell run to completion
	select {
	case err := <-drainErr:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("drain did not complete after the in-flight cell finished")
	}

	// The running job was interrupted: it is drained with both the
	// pre-drain cell and the in-flight cell checkpointed.
	rst := running.jobStatusAfterDrain(t, srv)
	if rst.State != string(StateDrained) {
		t.Fatalf("running job state = %s (error %q), want drained", rst.State, rst.Error)
	}
	if rst.Checkpoint == "" {
		t.Fatal("drained job has no checkpoint path")
	}
	qst := queued.jobStatusAfterDrain(t, srv)
	if qst.State != string(StateDrained) {
		t.Errorf("queued job state = %s, want drained", qst.State)
	}

	// The checkpoint is a valid versioned cell dump with the completed
	// cells — exactly what -cells-in loads.
	data, err := os.ReadFile(rst.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := experiments.UnmarshalCells(data)
	if err != nil {
		t.Fatalf("checkpoint not loadable: %v", err)
	}
	if len(cells) != rst.Cells.Done {
		t.Errorf("checkpoint has %d cells, status says %d completed", len(cells), rst.Cells.Done)
	}
	if len(cells) != 2 {
		t.Fatalf("checkpoint has %d cells, want 2 (the completed cell plus the in-flight one)", len(cells))
	}

	// Requeueability: rerun the same experiment locally with the
	// checkpoint preloaded; only the remainder simulates.
	var resimulated []string
	p := testParams()
	p.Replay = experiments.ReplayOff
	p.Cells = cells
	p.Progress = func(msg string) { resimulated = append(resimulated, msg) }
	r, err := experiments.Run("table3", p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Render() == "" {
		t.Error("resumed run rendered nothing")
	}
	// Each table3 cell emits exactly one "run ..." progress line, so the
	// hard invariant is the count: the resume simulates exactly the
	// cells the checkpoint is missing.
	total := 0
	for _, msg := range resimulated {
		if strings.HasPrefix(msg, "run ") {
			total++
		}
	}
	fullRun := 0
	pf := testParams()
	pf.Replay = experiments.ReplayOff
	pf.Progress = func(msg string) {
		if strings.HasPrefix(msg, "run ") {
			fullRun++
		}
	}
	if _, err := experiments.Run("table3", pf); err != nil {
		t.Fatal(err)
	}
	if want := fullRun - len(cells); total != want {
		t.Errorf("resume simulated %d cells, want %d (%d total - %d checkpointed)",
			total, want, fullRun, len(cells))
	}

	// Submissions after drain are refused with 503 + Retry-After.
	body := `{"version":1,"experiments":["table3"]}`
	resp, err := http.Post(srv.URL()+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
	if err == nil {
		resp.Body.Close()
		t.Errorf("submit after drain: HTTP %d, want connection refused", resp.StatusCode)
	}

	// No goroutine leaks: everything the server started has exited.
	// Close the test client's keepalive connections first (their read
	// loops are ours, not the server's) and allow the runtime a moment
	// to reap exiting goroutines.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Errorf("goroutines leaked: %d before, %d after\n%s",
		before, runtime.NumGoroutine(), buf[:n])
}

// jobStatusAfterDrain reads a job's status directly (the HTTP listener
// is closed once Drain returns).
func (sub SubmitResponse) jobStatusAfterDrain(t *testing.T, srv *Server) StatusResponse {
	t.Helper()
	j, ok := srv.job(sub.ID)
	if !ok {
		t.Fatalf("job %s vanished", sub.ID)
	}
	return j.snapshot()
}

// TestDrainIdempotent calls Drain twice (and once concurrently with
// itself) — every call must return cleanly.
func TestDrainIdempotent(t *testing.T) {
	srv := newTestServer(t, nil)
	errc := make(chan error, 2)
	go func() { errc <- srv.Drain() }()
	go func() { errc <- srv.Drain() }()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errc:
			if err != nil {
				t.Errorf("drain %d: %v", i, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("drain deadlocked")
		}
	}
}

// TestDrainEmptyServer drains a server that never ran a job.
func TestDrainEmptyServer(t *testing.T) {
	srv, err := New(Config{Addr: "127.0.0.1:0", CacheDir: t.TempDir(), Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
}
