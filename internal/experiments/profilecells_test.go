package experiments

import (
	"strings"
	"testing"
	"time"

	"specctrl/internal/obs/span"
)

// TestProfileCells pins the -profile-cells report: rows sorted by wall
// time with ties broken by key, n clamped to the number of cell spans,
// a "-" rate for rows without cycles, the source and worker columns,
// and the message printed when no cell spans were recorded.
func TestProfileCells(t *testing.T) {
	t0 := time.Unix(1000, 0)
	cell := func(name string, wall time.Duration, attrs ...span.Attr) span.Span {
		return span.Span{Name: name, Start: t0, Finish: t0.Add(wall), Attrs: attrs}
	}
	spans := []span.Span{
		cell("exp:table3", 9*time.Second),
		cell("cell:table3/go/gshare/main", 2*time.Second,
			span.Int("cycles", 4_000_000), span.Str("source", "compute"), span.Int("worker", 1)),
		cell("wait:table3/gcc/gshare/main", 5*time.Second),
		cell("cell:table3/compress/gshare/main", 500*time.Millisecond,
			span.Int("cycles", 1_000_000), span.Str("source", "compute"), span.Int("worker", 0)),
		cell("cell:table3/gcc/gshare/main", 2*time.Second,
			span.Str("source", "cache"), span.Int("worker", 0)),
		cell("cell:table3/li/gshare/main", time.Second,
			span.Int("cycles", 3_000_000), span.Str("source", "cells-in"), span.Int("worker", 3)),
	}
	header := "  cell                                                  wall       cycles    Mcyc/s source   worker\n"
	rows := []string{
		"  table3/gcc/gshare/main                              2.000s            0         - cache    0\n",
		"  table3/go/gshare/main                               2.000s      4000000       2.0 compute  1\n",
		"  table3/li/gshare/main                               1.000s      3000000       3.0 cells-in 3\n",
		"  table3/compress/gshare/main                         0.500s      1000000       2.0 compute  0\n",
	}
	for _, tc := range []struct {
		n    int
		want string
	}{
		{2, "slowest 2 of 4 cells (5.50s total cell wall time):\n" + header + rows[0] + rows[1]},
		{10, "slowest 4 of 4 cells (5.50s total cell wall time):\n" + header + strings.Join(rows, "")},
	} {
		var b strings.Builder
		ProfileCells(&b, spans, tc.n)
		if b.String() != tc.want {
			t.Errorf("n=%d: got\n%s\nwant\n%s", tc.n, b.String(), tc.want)
		}
	}

	var b strings.Builder
	ProfileCells(&b, spans[:1], 5)
	if want := "profile-cells: no cell spans recorded (tracing disabled or nothing ran)\n"; b.String() != want {
		t.Errorf("no cell spans: got %q, want %q", b.String(), want)
	}
}
