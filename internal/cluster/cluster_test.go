package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"specctrl/internal/experiments"
	"specctrl/internal/obs"
	"specctrl/internal/serve"
)

// testParams is the reduced scale the cluster e2e tests simulate at
// (the same budget internal/serve's tests use).
func testParams() experiments.Params {
	p := experiments.TestParams()
	p.MaxCommitted = 40_000
	return p
}

// newTestCluster boots a coordinator and n workers on loopback with
// fast heartbeats, all torn down with the test.
func newTestCluster(t *testing.T, n int, mutate func(*Config)) (*Coordinator, []*Worker) {
	t.Helper()
	cfg := Config{
		Serve: serve.Config{
			Addr:           "127.0.0.1:0",
			CacheDir:       t.TempDir(),
			Params:         testParams(),
			Jobs:           2,
			JobConcurrency: 2,
			Registry:       obs.NewRegistry(),
		},
		Heartbeat: 100 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := co.Drain(); err != nil {
			t.Errorf("coordinator drain: %v", err)
		}
	})
	workers := make([]*Worker, n)
	for i := range workers {
		w, err := NewWorker(WorkerConfig{
			Coordinator: co.URL(),
			Node:        fmt.Sprintf("node-%d", i),
			Jobs:        2,
			PollWait:    200 * time.Millisecond,
			Registry:    obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
		t.Cleanup(func() {
			if err := w.Drain(); err != nil {
				t.Errorf("worker drain: %v", err)
			}
		})
	}
	return co, workers
}

// submitJob posts a job for the given experiments and returns the
// submit response.
func submitJob(t *testing.T, co *Coordinator, body string) serve.SubmitResponse {
	t.Helper()
	resp, err := http.Post(co.URL()+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, data)
	}
	var sub serve.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	return sub
}

// waitDone polls a job to its terminal state and requires "done".
func waitDone(t *testing.T, co *Coordinator, sub serve.SubmitResponse) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		var st serve.StatusResponse
		getJSON(t, co.URL()+sub.Status, &st)
		switch st.State {
		case "done":
			return
		case "failed", "drained":
			t.Fatalf("job %s: state %s, error %q", st.ID, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", st.ID, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fetchResult returns the rendered output of a done single-experiment
// job.
func fetchResult(t *testing.T, co *Coordinator, sub serve.SubmitResponse) string {
	t.Helper()
	var res serve.ResultResponse
	getJSON(t, co.URL()+sub.Result, &res)
	if len(res.Outputs) != 1 {
		t.Fatalf("expected 1 output, got %d", len(res.Outputs))
	}
	return res.Outputs[0].Output
}

// fetchResults returns a done job's rendered outputs keyed by
// experiment name.
func fetchResults(t *testing.T, co *Coordinator, sub serve.SubmitResponse) map[string]string {
	t.Helper()
	var res serve.ResultResponse
	getJSON(t, co.URL()+sub.Result, &res)
	out := make(map[string]string, len(res.Outputs))
	for _, o := range res.Outputs {
		out[o.Experiment] = o.Output
	}
	return out
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, data)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// localRender is the single-process reference output for an experiment
// under testParams.
func localRender(t *testing.T, name string) string {
	t.Helper()
	r, err := experiments.Run(name, testParams())
	if err != nil {
		t.Fatal(err)
	}
	return r.Render()
}

// TestClusterByteIdenticalToLocal is the tentpole acceptance: a
// 2-worker cluster run renders byte-identically to a single-process
// run, and the workers actually did work (cells were published through
// the shared tier, not computed by the coordinator's local pass
// alone).
func TestClusterByteIdenticalToLocal(t *testing.T) {
	want := localRender(t, "table3")
	co, workers := newTestCluster(t, 2, nil)

	sub := submitJob(t, co, `{"version":1,"experiments":["table3"]}`)
	waitDone(t, co, sub)
	if got := fetchResult(t, co, sub); got != want {
		t.Errorf("cluster output differs from local run:\n--- local ---\n%s\n--- cluster ---\n%s", want, got)
	}
	if co.cellPuts.Value() == 0 {
		t.Error("no cells were published by workers: the cluster did not participate")
	}
	if co.unitsDone.Value() == 0 {
		t.Error("no units completed")
	}
	var executed uint64
	for _, w := range workers {
		executed += w.unitsDone.Value()
	}
	if executed == 0 {
		t.Error("no worker executed a unit")
	}
}

// TestClusterCrossNodeCacheHits: work one node did must be another
// node's cache hit, on both shared tiers. A table3 + fig5 job warms the
// coordinator's tiers with (workload, McFarling) event traces; then a
// fresh worker (cold local caches, the original workers drained) runs
// misest and jrsmcf — different cells, but the same McFarling traces —
// so it must fetch those recordings from the coordinator. Finally a
// table3 resubmission must be served from the shared cell tier.
func TestClusterCrossNodeCacheHits(t *testing.T) {
	co, workers := newTestCluster(t, 2, nil)

	first := submitJob(t, co, `{"version":1,"experiments":["table3","fig5"]}`)
	waitDone(t, co, first)
	// Both experiments are replay-shaped: the recordings made on the
	// workers were written through to the coordinator.
	if co.tracePuts.Value() == 0 {
		t.Error("no traces were uploaded to the shared tier")
	}

	for _, w := range workers {
		if err := w.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := NewWorker(WorkerConfig{
		Coordinator: co.URL(),
		Node:        "node-fresh",
		Jobs:        2,
		PollWait:    200 * time.Millisecond,
		Registry:    obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := fresh.Drain(); err != nil {
			t.Errorf("fresh worker drain: %v", err)
		}
	})

	second := submitJob(t, co, `{"version":1,"experiments":["misest","jrsmcf"]}`)
	waitDone(t, co, second)
	if co.traceHits.Value() == 0 {
		t.Error("no cross-node trace-cache hits recorded")
	}
	res := fetchResults(t, co, second)
	if got, want := res["misest"], localRender(t, "misest"); got != want {
		t.Error("misest cluster output differs from local run")
	}
	if got, want := res["jrsmcf"], localRender(t, "jrsmcf"); got != want {
		t.Error("jrsmcf cluster output differs from local run")
	}

	third := submitJob(t, co, `{"version":1,"experiments":["table3"]}`)
	waitDone(t, co, third)
	if got, want := fetchResults(t, co, third)["table3"], fetchResults(t, co, first)["table3"]; got != want {
		t.Error("table3 resubmission differs from the first run")
	}
	if co.cellHits.Value() == 0 {
		t.Error("no cross-node cell-cache hits recorded")
	}
}

// TestClusterKillWorkerMidJob is the chaos acceptance: SIGKILL-ing a
// worker mid-grid (Worker.Kill is the in-process stand-in — it stops
// everything instantly and reports nothing) must leave the job
// completing with byte-identical output, the dead worker's units
// recovered by the lease TTL.
func TestClusterKillWorkerMidJob(t *testing.T) {
	want := localRender(t, "table3")
	co, workers := newTestCluster(t, 2, func(cfg *Config) {
		cfg.Heartbeat = 50 * time.Millisecond // TTL 150ms: fast recovery
	})

	sub := submitJob(t, co, `{"version":1,"experiments":["table3"]}`)

	// Kill a worker as soon as the scheduler has leased it a unit, so
	// the kill lands mid-grid rather than before or after the work.
	victim := (*Worker)(nil)
	deadline := time.Now().Add(60 * time.Second)
	for victim == nil && time.Now().Before(deadline) {
		var st Status
		getJSON(t, co.URL()+"/cluster/v1/status", &st)
		for _, row := range st.Workers {
			if len(row.Leased) == 0 {
				continue
			}
			for _, w := range workers {
				if w.ID() == row.ID {
					victim = w
					break
				}
			}
			if victim != nil {
				break
			}
		}
		if victim == nil {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if victim == nil {
		t.Fatal("no unit was ever leased; cannot stage the kill")
	}
	victim.Kill()

	waitDone(t, co, sub)
	if got := fetchResult(t, co, sub); got != want {
		t.Errorf("post-kill cluster output differs from local run:\n--- local ---\n%s\n--- cluster ---\n%s", want, got)
	}
	if co.workersLost.Value() == 0 {
		t.Error("the killed worker was never declared lost")
	}
}

// TestClusterNoWorkers: a coordinator with no workers degrades to a
// plain single-process service — jobs still complete byte-identically.
func TestClusterNoWorkers(t *testing.T) {
	want := localRender(t, "table2")
	co, _ := newTestCluster(t, 0, nil)

	sub := submitJob(t, co, `{"version":1,"experiments":["table2"]}`)
	waitDone(t, co, sub)
	if got := fetchResult(t, co, sub); got != want {
		t.Error("workerless cluster output differs from local run")
	}
}

// TestClusterWorkerDrainHandsBack: a graceful worker drain mid-job
// requeues its work and the job still completes correctly on the
// remaining worker.
func TestClusterWorkerDrainHandsBack(t *testing.T) {
	want := localRender(t, "table3")
	co, workers := newTestCluster(t, 2, nil)

	sub := submitJob(t, co, `{"version":1,"experiments":["table3"]}`)
	// Let the scheduler hand out some work, then drain one worker.
	time.Sleep(50 * time.Millisecond)
	if err := workers[0].Drain(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, co, sub)
	if got := fetchResult(t, co, sub); got != want {
		t.Error("post-drain cluster output differs from local run")
	}
}
