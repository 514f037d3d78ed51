package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"specctrl/internal/experiments"
	"specctrl/internal/memo"
	"specctrl/internal/synth"
)

// runDone submits body and waits for the job, failing unless it ends
// done.
func runDone(t *testing.T, srv *Server, body string) (SubmitResponse, StatusResponse) {
	t.Helper()
	sub, resp := postJob(t, srv, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s: HTTP %d", body, resp.StatusCode)
	}
	st := waitTerminal(t, srv, sub)
	if st.State != string(StateDone) {
		t.Fatalf("job %s: state %s, error %q", st.ID, st.State, st.Error)
	}
	return sub, st
}

// getBody fetches path from srv and returns the body.
func getBody(t *testing.T, srv *Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(srv.URL() + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// cellEvents returns a finished job's cell events as sorted
// "key addr cached" lines: the multiset its stream reported.
func cellEvents(t *testing.T, srv *Server, sub SubmitResponse) []string {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(string(getBody(t, srv, sub.Events))))
	var lines []string
	for dec.More() {
		var e Event
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		if e.Type == "cell" {
			lines = append(lines, fmt.Sprintf("%s %s %v", e.Key, e.Addr, e.Cached))
		}
	}
	slices.Sort(lines)
	return lines
}

// uncached strips the cached flag from cellEvents lines.
func uncached(lines []string) []string {
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i] = l[:strings.LastIndexByte(l, ' ')]
	}
	return out
}

// TestRenderedTierWarmJobMatchesCold: a job served from the rendered
// tier reports exactly what the same warm job run through the grid
// reports — result bytes, status counts, cell events with their cached
// flags, /cells dump — and its bytes, cells and dump equal those of the
// cold job that filled the entry.
func TestRenderedTierWarmJobMatchesCold(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, func(c *Config) { c.CacheDir = dir })
	// fig1 is analytic: a render with no cells is an entry too.
	const body = `{"version":1,"experiments":["table3","fig1","table2"]}`
	cold, coldSt := runDone(t, srv, body)
	warm, warmSt := runDone(t, srv, body)
	if h := srv.store.renderedHits.Value(); h != 3 {
		t.Errorf("rendered hits = %d after the warm job, want 3 (one per experiment)", h)
	}
	if g := srv.reg.Gauge("specctrl_serve_rendered_bytes", nil).Value(); g <= 0 {
		t.Errorf("rendered bytes gauge = %v with three entries stored", g)
	}

	// The reference: the same job on a second server over the same
	// directory, whose memory tiers are empty, so it runs every grid and
	// reads every cell from disk.
	ref := newTestServer(t, func(c *Config) { c.CacheDir = dir })
	grid, gridSt := runDone(t, ref, body)
	if h := ref.store.renderedHits.Value(); h != 0 {
		t.Fatalf("reference server served %d renders from an empty tier", h)
	}

	want := getResult(t, srv, cold)
	if got := getResult(t, srv, warm); !reflect.DeepEqual(got, want) {
		t.Error("warm job rendered differently from the cold job")
	}
	if got := getResult(t, ref, grid); !reflect.DeepEqual(got, want) {
		t.Error("grid-run warm job rendered differently from the cold job")
	}
	if warmSt.Cells != gridSt.Cells {
		t.Errorf("warm counts %+v, grid-run warm counts %+v", warmSt.Cells, gridSt.Cells)
	}
	if warmSt.Cells.Done != coldSt.Cells.Done || warmSt.Cells.Simulated != 0 {
		t.Errorf("warm counts %+v, want all %d of the cold job's cells cached", warmSt.Cells, coldSt.Cells.Done)
	}
	warmEv, gridEv, coldEv := cellEvents(t, srv, warm), cellEvents(t, ref, grid), cellEvents(t, srv, cold)
	if len(warmEv) != warmSt.Cells.Done {
		t.Errorf("%d cell events, status says %d cells", len(warmEv), warmSt.Cells.Done)
	}
	if !reflect.DeepEqual(warmEv, gridEv) {
		t.Errorf("warm cell events differ from the grid-run warm job's:\n%v\n%v", warmEv, gridEv)
	}
	if !reflect.DeepEqual(uncached(warmEv), uncached(coldEv)) {
		t.Error("warm cell events name other cells than the cold job's")
	}
	coldDump := getBody(t, srv, cold.Cells)
	if got := getBody(t, srv, warm.Cells); string(got) != string(coldDump) {
		t.Error("warm /cells dump differs from the cold job's")
	}
	if got := getBody(t, ref, grid.Cells); string(got) != string(coldDump) {
		t.Error("grid-run warm /cells dump differs from the cold job's")
	}
}

// TestRenderedTierConcurrentJobs: identical jobs stored and served
// concurrently — two cold jobs racing to store each render, then two
// warm jobs reading the entries at once — all render the same bytes.
// Run under -race.
func TestRenderedTierConcurrentJobs(t *testing.T) {
	srv := newTestServer(t, nil)
	const body = `{"version":1,"experiments":["table3","table4"]}`
	var want []ExperimentOutput
	for round := range 2 {
		a, _ := postJob(t, srv, body)
		b, _ := postJob(t, srv, body)
		for _, sub := range []SubmitResponse{a, b} {
			if st := waitTerminal(t, srv, sub); st.State != string(StateDone) {
				t.Fatalf("round %d job %s: %s (%q)", round, st.ID, st.State, st.Error)
			}
			got := getResult(t, srv, sub)
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("round %d job %s rendered differently", round, sub.ID)
			}
		}
	}
	// Four in the warm round; a cold job that starts after the other
	// stored a render may hit too.
	if h := srv.store.renderedHits.Value(); h < 4 {
		t.Errorf("%d rendered hits, want at least the warm round's 4", h)
	}
}

// TestRenderedTierKeyedByParams: a job under another committed budget,
// profile count or profile list never receives another parameter set's
// render; the same parameters do.
func TestRenderedTierKeyedByParams(t *testing.T) {
	srv := newTestServer(t, nil)
	prof, err := json.Marshal(synth.PaperTargets()[0].Profile)
	if err != nil {
		t.Fatal(err)
	}
	const base = `{"version":1,"experiments":["sweepspace"],"synthN":2`
	output := func(body string) string {
		t.Helper()
		sub, _ := runDone(t, srv, body)
		return getResult(t, srv, sub)[0].Output
	}
	want := output(base + `}`)
	for _, body := range []string{
		base + `,"committed":30000}`,
		`{"version":1,"experiments":["sweepspace"],"synthN":3}`,
		base + `,"synthProfiles":[` + string(prof) + `]}`,
	} {
		if got := output(body); got == want {
			t.Errorf("%s rendered the base job's bytes", body)
		}
		if h := srv.store.renderedHits.Value(); h != 0 {
			t.Fatalf("%s: %d rendered hits, want none", body, h)
		}
	}
	if got := output(base + `}`); got != want {
		t.Error("resubmitted base job rendered differently")
	}
	if h := srv.store.renderedHits.Value(); h != 1 {
		t.Errorf("resubmitted base job: %d rendered hits, want 1", h)
	}
}

// TestRenderedTierFallsBackToGrid: when a listed cell is gone from both
// store tiers, the job runs the grid instead — recomputing only that
// cell, reporting each cell once — and renders the same bytes.
func TestRenderedTierFallsBackToGrid(t *testing.T) {
	srv := newTestServer(t, nil)
	const body = `{"version":1,"experiments":["table3"]}`
	cold, coldSt := runDone(t, srv, body)
	ev := cellEvents(t, srv, cold)
	addr := strings.Fields(ev[len(ev)/2])[1]
	if err := os.Remove(srv.store.path(addr)); err != nil {
		t.Fatal(err)
	}
	// No job is running: swap in an empty memory tier.
	srv.store.mem = memo.New[experiments.CellResult](memBudget, nil, nil)

	warm, warmSt := runDone(t, srv, body)
	if h := srv.store.renderedHits.Value(); h != 0 {
		t.Errorf("%d rendered hits with a listed cell missing, want 0", h)
	}
	if warmSt.Cells.Done != coldSt.Cells.Done || warmSt.Cells.Simulated != 1 {
		t.Errorf("fallback counts %+v, want %d cells, 1 simulated", warmSt.Cells, coldSt.Cells.Done)
	}
	if n := len(cellEvents(t, srv, warm)); n != coldSt.Cells.Done {
		t.Errorf("fallback emitted %d cell events, want %d", n, coldSt.Cells.Done)
	}
	if !reflect.DeepEqual(getResult(t, srv, warm), getResult(t, srv, cold)) {
		t.Error("fallback rendered differently from the cold job")
	}
	// The recomputed cell is stored again, so the next job is warm.
	runDone(t, srv, body)
	if h := srv.store.renderedHits.Value(); h != 1 {
		t.Errorf("%d rendered hits after the fallback refilled the store, want 1", h)
	}
}

// TestRenderedTierSkipsFailedJobs: a timed-out job stores no render, so
// the next job for the same experiment computes it.
func TestRenderedTierSkipsFailedJobs(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.JobTimeout = time.Nanosecond })
	const body = `{"version":1,"experiments":["table3"]}`
	sub, _ := postJob(t, srv, body)
	if st := waitTerminal(t, srv, sub); st.State != string(StateFailed) {
		t.Fatalf("job under a 1ns timeout ended %s", st.State)
	}
	if _, ok := srv.store.renders.Get(srv.jobParams(SubmitRequest{}).ExperimentAddress("table3")); ok {
		t.Error("a timed-out job stored a render")
	}
	if g := srv.reg.Gauge("specctrl_serve_rendered_bytes", nil).Value(); g != 0 {
		t.Errorf("rendered bytes gauge = %v after only a failed job", g)
	}
	srv.cfg.JobTimeout = 0 // no job is running
	local, err := experiments.Run("table3", testParams())
	if err != nil {
		t.Fatal(err)
	}
	sub, _ = runDone(t, srv, body)
	if got := getResult(t, srv, sub)[0].Output; got != local.Render() {
		t.Error("job after a timed-out one rendered differently from the local run")
	}
	if h := srv.store.renderedHits.Value(); h != 0 {
		t.Errorf("%d rendered hits after a timed-out job, want 0", h)
	}
}

// countdownCtx is a context that reports itself cancelled from its
// left+1-th Err call on: a drain that lands after a warm replay has
// read left cells.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestDrainDuringWarmReplay: a drain that lands while a warm job is
// replaying its render's cells ends the job drained, with the cells
// read so far checkpointed, exactly as a drain ends a grid job.
func TestDrainDuringWarmReplay(t *testing.T) {
	srv := newTestServer(t, nil)
	const read = 3
	_, coldSt := runDone(t, srv, `{"version":1,"experiments":["table3"]}`)
	if coldSt.Cells.Done <= read {
		t.Fatalf("table3 has %d cells, want more than %d", coldSt.Cells.Done, read)
	}

	// No job is running: drain-cancel the server's context after the
	// replay has read `read` cells, and run a warm job under it.
	drain := &countdownCtx{Context: context.Background()}
	drain.left.Store(read)
	srv.drainCtx = drain
	j := newJob("job-warm-drain", SubmitRequest{Version: APIVersion, Experiments: []string{"table3"}}, time.Now())
	srv.runJob(j)

	st := j.snapshot()
	if st.State != string(StateDrained) {
		t.Fatalf("warm job interrupted by drain ended %s (%q), want drained", st.State, st.Error)
	}
	if st.Cells.Done != read || st.Cells.FromCache != read {
		t.Errorf("drained warm job counts %+v, want %d cells read", st.Cells, read)
	}
	data, err := os.ReadFile(st.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := experiments.UnmarshalCells(data)
	if err != nil {
		t.Fatalf("checkpoint not loadable: %v", err)
	}
	if len(cells) != read {
		t.Errorf("checkpoint holds %d cells, want %d", len(cells), read)
	}
	if h := srv.store.renderedHits.Value(); h != 0 {
		t.Errorf("an interrupted replay counted %d rendered hits", h)
	}
}

// TestRenderedTierIgnoresFakeRenders: under the runExperiment test seam
// every job calls the seam, and its fake render is never stored.
func TestRenderedTierIgnoresFakeRenders(t *testing.T) {
	var calls atomic.Int64
	srv := newTestServer(t, func(c *Config) {
		c.runExperiment = func(name string, p experiments.Params) (experiments.Renderer, error) {
			calls.Add(1)
			return fakeResult("fake " + name), nil
		}
	})
	for i := 0; i < 2; i++ {
		sub, _ := runDone(t, srv, `{"version":1,"experiments":["table3"]}`)
		if got := getResult(t, srv, sub)[0].Output; got != "fake table3" {
			t.Fatalf("job %d rendered %q", i, got)
		}
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("seam called %d times for two jobs, want 2", n)
	}
	if g := srv.reg.Gauge("specctrl_serve_rendered_bytes", nil).Value(); g != 0 {
		t.Errorf("rendered bytes gauge = %v: a fake render was stored", g)
	}
}

// countingRender counts Render calls on a real experiment result.
type countingRender struct {
	experiments.Renderer
	renders *atomic.Int64
}

func (c countingRender) Render() string {
	c.renders.Add(1)
	return c.Renderer.Render()
}

// TestWarmJobSkipsGridAndRender: a warm job runs no experiment driver —
// so no runner.Run and no grid cell span — and calls no Render method.
func TestWarmJobSkipsGridAndRender(t *testing.T) {
	var runs, renders atomic.Int64
	srv := newTestServer(t, func(c *Config) {
		c.runExperiment = func(name string, p experiments.Params) (experiments.Renderer, error) {
			runs.Add(1)
			r, err := experiments.Run(name, p)
			if err != nil {
				return nil, err
			}
			return countingRender{r, &renders}, nil
		}
	})
	// The seam's renders are real, so the tier may keep them. No job
	// has been submitted yet.
	srv.renderTier = true
	cellSpans := func() int {
		n := 0
		for _, s := range srv.Tracer().Snapshot() {
			if strings.HasPrefix(s.Name, "cell:") {
				n++
			}
		}
		return n
	}

	const body = `{"version":1,"experiments":["table3"]}`
	cold, _ := runDone(t, srv, body)
	coldSpans := cellSpans()
	if runs.Load() != 1 || renders.Load() != 1 || coldSpans == 0 {
		t.Fatalf("cold job: %d runs, %d renders, %d cell spans; want 1, 1, >0", runs.Load(), renders.Load(), coldSpans)
	}
	warm, _ := runDone(t, srv, body)
	if runs.Load() != 1 || renders.Load() != 1 {
		t.Errorf("warm job ran the experiment (%d runs) or rendered (%d renders) again", runs.Load()-1, renders.Load()-1)
	}
	if n := cellSpans(); n != coldSpans {
		t.Errorf("warm job opened %d grid cell spans, want none", n-coldSpans)
	}
	if !reflect.DeepEqual(getResult(t, srv, warm), getResult(t, srv, cold)) {
		t.Error("warm job rendered differently")
	}
}

// warmJobAllocs bounds the heap allocations of one warm job, client
// included: submit, follow the event stream to its end, fetch the
// result. The job replays its render's cells from the memory tier and
// renders nothing. Measured at 383 plain and 450 under the race
// detector, which adds allocations of its own; the bound sits about 10%
// above the latter. A warm job that runs its grid and renders allocates
// about 1,390 times (140 KB), so re-entering the grid on the warm path
// fails it.
const warmJobAllocs = 500

// TestWarmJobAllocs pins the allocations per warm job over the
// serve-mixed catalogue at test scale.
func TestWarmJobAllocs(t *testing.T) {
	srv := newTestServer(t, nil)
	catalogue := []string{"table2", "table3", "fig4", "fig6", "table4"}
	job := func(name string) {
		sub, resp := postJob(t, srv, `{"version":1,"experiments":["`+name+`"]}`)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: HTTP %d", name, resp.StatusCode)
		}
		events := getBody(t, srv, sub.Events) // ends with the job's terminal event
		if !strings.Contains(string(events), `"state":"done"`) {
			t.Fatalf("%s: job did not end done: %s", name, events)
		}
		if outs := getResult(t, srv, sub); len(outs) != 1 || outs[0].Output == "" {
			t.Fatalf("%s: result %+v", name, outs)
		}
	}
	for range 2 { // a cold round, then a warm one
		for _, name := range catalogue {
			job(name)
		}
	}
	const rounds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		for _, name := range catalogue {
			job(name)
		}
	}
	runtime.ReadMemStats(&after)
	jobs := float64(rounds * len(catalogue))
	allocs := float64(after.Mallocs-before.Mallocs) / jobs
	t.Logf("%.0f allocations, %.1f KB per warm job", allocs, float64(after.TotalAlloc-before.TotalAlloc)/jobs/1024)
	if allocs > warmJobAllocs {
		t.Errorf("a warm job allocates %.0f times, want at most %d", allocs, warmJobAllocs)
	}
}
