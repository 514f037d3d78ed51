package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"specctrl/internal/obs/span"
	"specctrl/internal/serve"
)

// serveStats are the serve-mixed numbers the traced run reports per
// layer.
type serveStats struct {
	// Per warm job: client-side submit and result-fetch times, and the
	// server's queue and execution times from the status document.
	submitMS, resultMS, queueMS, execMS []float64
	// Cell counts summed over every job's status document.
	done, fromCache, simulated int
	storeMB                    float64
}

// serveMixed runs the serve workload: a cold round that submits the
// whole catalogue at once and so computes and stores every cell, then a
// warm closed loop in which each client waits for its job's result
// before submitting the next.
func (s *session) serveMixed(ctx context.Context) (passResult, error) {
	n := s.cfg.clients
	clients := make([]*client, n)
	for k := range clients {
		clients[k] = newClient(s.srv.URL(), s.cfg.params.Tracer)
		defer clients[k].close()
	}
	records := make([][]jobRecord, n)
	res := passResult{whole: true}

	start := time.Now()
	eachClient(n, func(k int) {
		var pending []*pendingJob
		for i := k; i < len(serveCatalogue); i += n {
			p, err := clients[k].submit(ctx, serveCatalogue[i])
			if err != nil {
				records[k] = append(records[k], jobRecord{err: err})
				continue
			}
			pending = append(pending, p)
		}
		for _, p := range pending {
			records[k] = append(records[k], clients[k].await(ctx, p, s.cfg.ref))
		}
	})
	res.cold = time.Since(start)
	tally(records, &res, false)

	lists := warmLists(s.cfg.seed, n, s.cfg.warmJobs)
	warmStart := time.Now()
	eachClient(n, func(k int) {
		records[k] = records[k][:0]
		for _, name := range lists[k] {
			p, err := clients[k].submit(ctx, name)
			if err != nil {
				records[k] = append(records[k], jobRecord{err: err})
				continue
			}
			records[k] = append(records[k], clients[k].await(ctx, p, s.cfg.ref))
		}
	})
	res.warm = time.Since(warmStart)
	res.wall = time.Since(start)
	tally(records, &res, true)

	size, err := dirSize(s.store)
	res.serve.storeMB = float64(size) / (1 << 20)
	return res, err
}

// tally folds job records into res: every job counts as an op and adds
// its cell counts; warm jobs also add their latencies.
func tally(records [][]jobRecord, res *passResult, warm bool) {
	errs := 0
	for _, recs := range records {
		for _, r := range recs {
			res.ops++
			if r.err != nil {
				res.failed++
				if errs++; errs <= 3 {
					fmt.Fprintf(os.Stderr, "specbench: job: %v\n", r.err)
				}
				continue
			}
			res.serve.done += r.status.Cells.Done
			res.serve.fromCache += r.status.Cells.FromCache
			res.serve.simulated += r.status.Cells.Simulated
			if !warm {
				continue
			}
			res.opMS = append(res.opMS, r.latencyMS)
			res.serve.submitMS = append(res.serve.submitMS, r.submitMS)
			res.serve.resultMS = append(res.serve.resultMS, r.resultMS)
			if r.status.StartedAt != nil && r.status.FinishedAt != nil {
				res.serve.queueMS = append(res.serve.queueMS, msBetween(r.status.CreatedAt, *r.status.StartedAt))
				res.serve.execMS = append(res.serve.execMS, msBetween(*r.status.StartedAt, *r.status.FinishedAt))
			}
		}
	}
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }

// warmLists deals each client perClient jobs: every catalogue entry
// equally often, so a pass does the same work under every seed, in an
// order drawn from the seed.
func warmLists(seed uint64, clients, perClient int) [][]string {
	r := rand.New(rand.NewPCG(seed, 1))
	lists := make([][]string, clients)
	for k := range lists {
		l := make([]string, perClient)
		for i := range l {
			l[i] = serveCatalogue[i%len(serveCatalogue)]
		}
		r.Shuffle(len(l), func(i, j int) { l[i], l[j] = l[j], l[i] })
		lists[k] = l
	}
	return lists
}

// eachClient runs fn for every client index concurrently and waits for
// all of them.
func eachClient(n int, fn func(k int)) {
	var wg sync.WaitGroup
	for k := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(k)
		}()
	}
	wg.Wait()
}

func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// client is one closed-loop user of the job API, on one connection.
// Every request runs inside a harness span whose context travels in the
// traceparent header, so the server's spans nest under it.
type client struct {
	base string
	http *http.Client
	tr   *span.Tracer
}

func newClient(base string, tr *span.Tracer) *client {
	return &client{
		base: base,
		http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		tr:   tr,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// pendingJob is a submitted job not yet awaited.
type pendingJob struct {
	name     string
	root     *span.Span
	start    time.Time
	submitMS float64
	paths    serve.SubmitResponse
}

// jobRecord is one finished job as the client saw it. err is set when
// the job failed, ended in a state other than done, or returned output
// not found in the reference.
type jobRecord struct {
	err                           error
	latencyMS, submitMS, resultMS float64
	status                        serve.StatusResponse
}

// submit posts one single-experiment job.
func (c *client) submit(ctx context.Context, name string) (*pendingJob, error) {
	body, err := json.Marshal(serve.SubmitRequest{Version: serve.APIVersion, Experiments: []string{name}})
	if err != nil {
		return nil, err
	}
	p := &pendingJob{name: name, root: c.tr.Root("client:job", span.Str("experiment", name)), start: time.Now()}
	if err := c.call(ctx, p.root, "submit", http.MethodPost, "/v1/jobs", body, http.StatusAccepted, &p.paths); err != nil {
		p.root.End()
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	p.submitMS = msSince(p.start)
	return p, nil
}

// await follows the job's event stream to its terminal event (never
// polling), fetches and verifies the result, then reads the status
// document. The latency ends once the result is verified.
func (c *client) await(ctx context.Context, p *pendingJob, ref reference) jobRecord {
	defer p.root.End()
	rec := jobRecord{submitMS: p.submitMS}
	fail := func(err error) jobRecord {
		rec.err = fmt.Errorf("%s: %w", p.name, err)
		return rec
	}
	state, err := c.follow(ctx, p.root, p.paths.Events)
	if err != nil {
		return fail(err)
	}
	if state != string(serve.StateDone) {
		return fail(fmt.Errorf("job ended %s", state))
	}
	t := time.Now()
	var result serve.ResultResponse
	if err := c.call(ctx, p.root, "result", http.MethodGet, p.paths.Result, nil, http.StatusOK, &result); err != nil {
		return fail(err)
	}
	rec.resultMS = msSince(t)
	if len(result.Outputs) != 1 || result.Outputs[0].Experiment != p.name || !ref.has(result.Outputs[0].Output) {
		return fail(fmt.Errorf("output not found in %s", referenceFile))
	}
	rec.latencyMS = msSince(p.start)
	if err := c.call(ctx, p.root, "status", http.MethodGet, p.paths.Status, nil, http.StatusOK, &rec.status); err != nil {
		return fail(err)
	}
	return rec
}

// call makes one JSON request and decodes the response into out.
func (c *client) call(ctx context.Context, parent *span.Span, name, method, path string, body []byte, want int, out any) error {
	sp := c.tr.Child(parent.Context(), "client:"+name)
	defer sp.End()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	resp, err := c.do(ctx, sp, method, path, rd)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

// follow reads the job's NDJSON event stream until the terminal "job"
// event and returns the state it reports.
func (c *client) follow(ctx context.Context, parent *span.Span, path string) (string, error) {
	sp := c.tr.Child(parent.Context(), "client:events")
	defer sp.End()
	resp, err := c.do(ctx, sp, http.MethodGet, path, nil)
	if err != nil {
		return "", err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var e serve.Event
		if err := dec.Decode(&e); err != nil {
			return "", fmt.Errorf("event stream %s: %w", path, err)
		}
		if e.Type == "job" {
			return e.State, nil
		}
	}
}

func (c *client) do(ctx context.Context, sp *span.Span, method, path string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	span.Inject(req.Header, sp.Context())
	return c.http.Do(req)
}

// drain reads the rest of a response body and closes it, so the
// connection is reused for the client's next request.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
