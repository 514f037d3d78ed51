package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"specctrl/internal/experiments"
	"specctrl/internal/obs"
)

// testParams is the reduced scale serve tests simulate at.
func testParams() experiments.Params {
	p := experiments.TestParams()
	p.MaxCommitted = 40_000
	return p
}

// newTestServer boots a server on an ephemeral port with tiny
// simulations; mutate adjusts the config before New.
func newTestServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Addr:           "127.0.0.1:0",
		CacheDir:       t.TempDir(),
		Params:         testParams(),
		Jobs:           4,
		JobConcurrency: 2,
		Registry:       obs.NewRegistry(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Drain(); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return srv
}

func postJob(t *testing.T, srv *Server, body string) (SubmitResponse, *http.Response) {
	t.Helper()
	resp, err := http.Post(srv.URL()+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sub SubmitResponse
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &sub); err != nil {
			t.Fatalf("submit response: %v: %s", err, data)
		}
	}
	return sub, resp
}

func getStatus(t *testing.T, srv *Server, sub SubmitResponse) StatusResponse {
	t.Helper()
	resp, err := http.Get(srv.URL() + sub.Status)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitTerminal(t *testing.T, srv *Server, sub SubmitResponse) StatusResponse {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		st := getStatus(t, srv, sub)
		if JobState(st.State).terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", st.ID, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// getResult fetches a finished job's rendered outputs.
func getResult(t *testing.T, srv *Server, sub SubmitResponse) []ExperimentOutput {
	t.Helper()
	resp, err := http.Get(srv.URL() + sub.Result)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res ResultResponse
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res.Outputs
}

// TestServeByteIdenticalAndCached is the acceptance criterion: results
// fetched through the service are byte-identical to the local run, and
// a repeated submission performs zero new simulations.
func TestServeByteIdenticalAndCached(t *testing.T) {
	srv := newTestServer(t, nil)

	local, err := experiments.Run("table3", testParams())
	if err != nil {
		t.Fatal(err)
	}
	want := local.Render()

	run := func() (StatusResponse, string) {
		sub, resp := postJob(t, srv, `{"version":1,"experiments":["table3"]}`)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d", resp.StatusCode)
		}
		st := waitTerminal(t, srv, sub)
		if st.State != string(StateDone) {
			t.Fatalf("job %s: state %s, error %q", st.ID, st.State, st.Error)
		}
		outs := getResult(t, srv, sub)
		if len(outs) != 1 || outs[0].Experiment != "table3" {
			t.Fatalf("outputs: %+v", outs)
		}
		return st, outs[0].Output
	}

	st1, out1 := run()
	if out1 != want {
		t.Errorf("served output differs from local run:\n--- served ---\n%s\n--- local ---\n%s", out1, want)
	}
	if st1.Cells.Simulated == 0 || st1.Cells.FromCache != 0 {
		t.Errorf("first run counts: %+v (want all simulated)", st1.Cells)
	}

	st2, out2 := run()
	if out2 != want {
		t.Errorf("second served output differs from local run")
	}
	if st2.Cells.Simulated != 0 {
		t.Errorf("second run simulated %d cells, want 0 (cache miss?)", st2.Cells.Simulated)
	}
	if st2.Cells.FromCache != st1.Cells.Done {
		t.Errorf("second run fromCache = %d, want %d", st2.Cells.FromCache, st1.Cells.Done)
	}
	if hits := srv.reg.Counter("specctrl_serve_cache_hits_total", nil).Value(); hits == 0 {
		t.Error("cache-hit metric did not move")
	}
}

// TestServeCellsDump checks /cells returns the same versioned schema
// simctrl -cells-out writes, loadable by UnmarshalCells and usable as
// a -cells-in preload.
func TestServeCellsDump(t *testing.T) {
	srv := newTestServer(t, nil)
	sub, _ := postJob(t, srv, `{"version":1,"experiments":["table3"]}`)
	st := waitTerminal(t, srv, sub)
	if st.State != string(StateDone) {
		t.Fatalf("job: %+v", st)
	}
	resp, err := http.Get(srv.URL() + sub.Cells)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := experiments.UnmarshalCells(data)
	if err != nil {
		t.Fatalf("cells dump not loadable: %v", err)
	}
	if len(cells) != st.Cells.Done {
		t.Errorf("dump has %d cells, status says %d", len(cells), st.Cells.Done)
	}

	// Preloading the dump must replay without simulating.
	p := testParams()
	p.Cells = cells
	p.Progress = func(msg string) { t.Fatalf("simulated despite server cells: %s", msg) }
	if _, err := experiments.Run("table3", p); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitValidation(t *testing.T) {
	srv := newTestServer(t, nil)
	cases := []struct {
		body string
		want int
	}{
		{`{"version":1,"experiments":["nope"]}`, http.StatusBadRequest},
		{`{"version":1,"experiments":[]}`, http.StatusBadRequest},
		{`{"version":99,"experiments":["table3"]}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
		// An unknown field, here the removed baseSeed: ignoring it
		// would run a job other than the one asked for.
		{`{"version":1,"experiments":["table3"],"baseSeed":5}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		_, resp := postJob(t, srv, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("submit %q: HTTP %d, want %d", c.body, resp.StatusCode, c.want)
		}
	}
	resp, err := http.Get(srv.URL() + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestAdmissionControl saturates a single-executor server whose
// executor is blocked and checks the bounded queue answers 429 with
// Retry-After instead of accepting unbounded work.
func TestAdmissionControl(t *testing.T) {
	block := make(chan struct{})
	srv := newTestServer(t, func(cfg *Config) {
		cfg.JobConcurrency = 1
		cfg.QueueDepth = 1
		cfg.RetryAfter = 7 * time.Second
		cfg.runExperiment = func(string, experiments.Params) (experiments.Renderer, error) {
			<-block
			return fakeResult("ok"), nil
		}
	})
	defer close(block)

	// First job occupies the executor; second fills the queue. The
	// executor dequeues asynchronously, so briefly retry the fill until
	// a submission sticks in the queue.
	if _, resp := postJob(t, srv, `{"version":1,"experiments":["table3"]}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d", resp.StatusCode)
	}
	saturated := false
	var last *http.Response
	for i := 0; i < 50 && !saturated; i++ {
		_, last = postJob(t, srv, `{"version":1,"experiments":["table3"]}`)
		switch last.StatusCode {
		case http.StatusAccepted:
			time.Sleep(5 * time.Millisecond)
		case http.StatusTooManyRequests:
			saturated = true
		default:
			t.Fatalf("fill submit: HTTP %d", last.StatusCode)
		}
	}
	if !saturated {
		t.Fatal("queue never saturated")
	}
	if ra := last.Header.Get("Retry-After"); ra != "7" {
		t.Errorf("Retry-After = %q, want \"7\"", ra)
	}
}

// fakeResult is a canned Renderer for executor-seam tests.
type fakeResult string

func (f fakeResult) Render() string { return string(f) }

// TestEventsStream follows a job's NDJSON event stream and checks
// ordering: monotonic seq, per-cell events, one experiment event, a
// terminal job event last.
func TestEventsStream(t *testing.T) {
	srv := newTestServer(t, nil)
	sub, _ := postJob(t, srv, `{"version":1,"experiments":["table3"]}`)

	resp, err := http.Get(srv.URL() + sub.Events)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events Content-Type = %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 {
		t.Fatalf("too few events: %+v", events)
	}
	cells, exps := 0, 0
	for i, e := range events {
		if e.Seq != i+1 {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
		switch e.Type {
		case "cell":
			cells++
			if e.Key == "" || len(e.Addr) != 64 {
				t.Errorf("cell event incomplete: %+v", e)
			}
		case "experiment":
			exps++
		}
	}
	last := events[len(events)-1]
	if last.Type != "job" || last.State != string(StateDone) {
		t.Errorf("terminal event: %+v", last)
	}
	if cells == 0 || exps != 1 {
		t.Errorf("stream had %d cell and %d experiment events", cells, exps)
	}
}

// TestConcurrentIdenticalJobsSingleflight submits the same grid twice
// concurrently on a two-executor server: between the disk cache and the
// in-flight dedup, each distinct cell must simulate exactly once.
func TestConcurrentIdenticalJobsSingleflight(t *testing.T) {
	srv := newTestServer(t, nil)
	sub1, _ := postJob(t, srv, `{"version":1,"experiments":["table3"]}`)
	sub2, _ := postJob(t, srv, `{"version":1,"experiments":["table3"]}`)
	st1 := waitTerminal(t, srv, sub1)
	st2 := waitTerminal(t, srv, sub2)
	if st1.State != string(StateDone) || st2.State != string(StateDone) {
		t.Fatalf("states: %s / %s", st1.State, st2.State)
	}
	total := st1.Cells.Simulated + st2.Cells.Simulated
	if total != st1.Cells.Done {
		t.Errorf("%d simulations across both jobs, want %d (one per distinct cell)",
			total, st1.Cells.Done)
	}
	if st1.Cells.Done != st2.Cells.Done {
		t.Errorf("cell counts differ: %+v vs %+v", st1.Cells, st2.Cells)
	}
}

// TestSharedCellsImmutable runs the serve-mixed catalogue cold, then
// twice more as two concurrent jobs that must be served entirely from
// the memory tier. Every job of the warm round receives the very
// values the cold round made resident, so an assembly step that wrote
// through a shared Stats would change what later jobs render; the
// check is that outputs stay byte-identical and that every resident
// value still encodes to exactly the bytes written to disk when it was
// computed. Run under -race it also covers concurrent sharing.
func TestSharedCellsImmutable(t *testing.T) {
	srv := newTestServer(t, nil)
	const catalogue = `{"version":1,"experiments":["table2","table3","fig4","fig6","table4"]}`

	// residentMatchesDisk compares every memory-resident value's
	// encoding with its on-disk entry and returns the encodings. Every
	// stored cell must be resident: each read is a memory hit.
	residentMatchesDisk := func() map[string]string {
		t.Helper()
		st := srv.store
		paths, err := filepath.Glob(filepath.Join(st.dir, "*", "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		memHits := srv.reg.Counter("specctrl_serve_cache_mem_hits_total", nil)
		memHits0 := memHits.Value()
		enc := make(map[string]string, len(paths))
		for _, path := range paths {
			addr := strings.TrimSuffix(filepath.Base(path), ".json")
			data, err := json.Marshal(fromStore(t, st, addr))
			if err != nil {
				t.Fatal(err)
			}
			disk, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(data)+"\n" != string(disk) {
				t.Errorf("resident cell %s no longer encodes to its disk entry", addr)
			}
			enc[addr] = string(data)
		}
		if d := memHits.Value() - memHits0; d != uint64(len(paths)) {
			t.Errorf("%d of %d stored cells were memory-resident", d, len(paths))
		}
		return enc
	}

	cold, _ := postJob(t, srv, catalogue)
	coldSt := waitTerminal(t, srv, cold)
	if coldSt.State != string(StateDone) {
		t.Fatalf("cold job: %+v", coldSt)
	}
	want := getResult(t, srv, cold)
	before := residentMatchesDisk()
	if len(before) == 0 {
		t.Fatal("cold round left nothing resident")
	}

	// The rendered tier would serve the warm round without assembling
	// anything; switch it off (no job is running) so every warm job
	// assembles its tables from the shared values.
	srv.renderTier = false
	hits := srv.reg.Counter("specctrl_serve_cache_hits_total", nil)
	memHits := srv.reg.Counter("specctrl_serve_cache_mem_hits_total", nil)
	hits0, memHits0 := hits.Value(), memHits.Value()
	warm := []SubmitResponse{}
	for i := 0; i < 2; i++ {
		sub, resp := postJob(t, srv, catalogue)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("warm submit %d: HTTP %d", i, resp.StatusCode)
		}
		warm = append(warm, sub)
	}
	warmCells := 0
	for _, sub := range warm {
		st := waitTerminal(t, srv, sub)
		if st.State != string(StateDone) {
			t.Fatalf("warm job: %+v", st)
		}
		if st.Cells.Simulated != 0 || st.Cells.FromCache != coldSt.Cells.Done {
			t.Errorf("warm job %s counts %+v, want all %d cells cached", st.ID, st.Cells, coldSt.Cells.Done)
		}
		warmCells += st.Cells.Done
		if got := getResult(t, srv, sub); !reflect.DeepEqual(got, want) {
			t.Errorf("warm job %s rendered differently from the cold round", st.ID)
		}
	}
	if d := memHits.Value() - memHits0; d != uint64(warmCells) {
		t.Errorf("warm round: %d memory hits, want %d (every cell)", d, warmCells)
	}
	if d := hits.Value() - hits0; d != uint64(warmCells) {
		t.Errorf("warm round: %d hits, want %d", d, warmCells)
	}
	if after := residentMatchesDisk(); !reflect.DeepEqual(after, before) {
		t.Error("resident cell encodings changed across the warm round")
	}
}

func TestReadyz(t *testing.T) {
	srv := newTestServer(t, nil)
	resp, err := http.Get(srv.URL() + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("/readyz while serving: %d", resp.StatusCode)
	}
}
