package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"specctrl/internal/experiments"
	"specctrl/internal/serve"
)

func TestPrintRendered(t *testing.T) {
	cases := []struct{ in, want string }{
		{"table\n", "table\n\n"},   // single newline gets a blank line
		{"table\n\n", "table\n\n"}, // already framed: unchanged
		{"x", "x\n"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		printRendered(&buf, c.in)
		if buf.String() != c.want {
			t.Errorf("printRendered(%q) = %q, want %q", c.in, buf.String(), c.want)
		}
	}
}

// TestServerConflict: every local-run-only flag given alongside -server
// is rejected with an error naming it, never silently ignored.
func TestServerConflict(t *testing.T) {
	for _, tc := range []struct {
		flags localOnly
		want  string // flag the error must name; "" = accepted
	}{
		{localOnly{}, ""},
		{localOnly{shard: "0/2"}, "-shard"},
		{localOnly{cellsIn: "x.json"}, "-cells-in"},
		{localOnly{policy: "gate:2"}, "-policy"},
		{localOnly{ingestTrace: "t.spbt"}, "-ingest-trace"},
	} {
		err := serverConflict(tc.flags)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%+v: unexpected error %v", tc.flags, err)
		case tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.want+" ")):
			t.Errorf("%+v: error %v, want one naming %s", tc.flags, err, tc.want)
		}
	}
}

// TestServerModeRoundTrip drives the -server client path end-to-end
// against a real in-process simserved: the analytic fig1 experiment
// (no simulation, so the test is fast) must render byte-identically to
// the local registry path.
func TestServerModeRoundTrip(t *testing.T) {
	srv, err := serve.New(serve.Config{
		Addr:     "127.0.0.1:0",
		CacheDir: t.TempDir(),
		Jobs:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()

	var stdout, stderr bytes.Buffer
	err = runServerMode(serverOpts{
		base:         srv.URL(),
		names:        []string{"fig1", "cost"},
		verbose:      true,
		stdout:       &stdout,
		stderr:       &stderr,
		pollInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("runServerMode: %v\nstderr:\n%s", err, stderr.String())
	}

	var want bytes.Buffer
	p := experiments.DefaultParams()
	for _, name := range []string{"fig1", "cost"} {
		r, err := experiments.Run(name, p)
		if err != nil {
			t.Fatal(err)
		}
		printRendered(&want, r.Render())
	}
	if stdout.String() != want.String() {
		t.Errorf("served output differs from local run:\n--- served ---\n%s\n--- local ---\n%s",
			stdout.String(), want.String())
	}
	if !strings.Contains(stderr.String(), "job done") {
		t.Errorf("verbose stream missing terminal job event:\n%s", stderr.String())
	}
}

func TestServerModeUnknownJobError(t *testing.T) {
	srv, err := serve.New(serve.Config{Addr: "127.0.0.1:0", CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	var stdout, stderr bytes.Buffer
	err = runServerMode(serverOpts{
		base:   srv.URL(),
		names:  []string{"definitely-not-an-experiment"},
		stdout: &stdout,
		stderr: &stderr,
	})
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("got %v, want unknown-experiment server error", err)
	}
}
