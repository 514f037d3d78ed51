package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"specctrl/internal/obs/span"
)

// Per-cell cost reporting (-profile-cells): a table of the slowest grid
// cells built from the runner's "cell:" spans, so a sweep's wall time
// can be attributed without opening the trace file.

// cellCost is one row of the report.
type cellCost struct {
	key    string
	wall   float64 // seconds
	cycles int64   // simulated cycles (0 when unknown, e.g. cache hits without stats)
	source string  // compute | cache | cells-in
	worker int64
}

// ProfileCells writes the n slowest grid cells among spans to w, one
// row per cell with its wall time, simulated cycles, simulation rate,
// where the result came from (compute/cache/cells-in), and which worker
// ran it. Spans that are not cell runs are ignored; with no cell spans
// (tracing off, or an all-cached run whose cells finished in
// microseconds) the report says so instead of printing an empty table.
func ProfileCells(w io.Writer, spans []span.Span, n int) {
	rows := make([]cellCost, 0, len(spans))
	var total float64
	for i := range spans {
		s := &spans[i]
		if !strings.HasPrefix(s.Name, "cell:") {
			continue
		}
		row := cellCost{
			key:  strings.TrimPrefix(s.Name, "cell:"),
			wall: s.Duration().Seconds(),
		}
		if v, ok := s.Attr("cycles").(int64); ok {
			row.cycles = v
		}
		if v, ok := s.Attr("source").(string); ok {
			row.source = v
		}
		if v, ok := s.Attr("worker").(int64); ok {
			row.worker = v
		}
		rows = append(rows, row)
		total += row.wall
	}
	if len(rows) == 0 {
		fmt.Fprintln(w, "profile-cells: no cell spans recorded (tracing disabled or nothing ran)")
		return
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].wall != rows[j].wall {
			return rows[i].wall > rows[j].wall
		}
		return rows[i].key < rows[j].key // stable order for equal times
	})
	if n > len(rows) {
		n = len(rows)
	}
	fmt.Fprintf(w, "slowest %d of %d cells (%.2fs total cell wall time):\n", n, len(rows), total)
	fmt.Fprintf(w, "  %-48s %9s %12s %9s %-8s %s\n",
		"cell", "wall", "cycles", "Mcyc/s", "source", "worker")
	for _, r := range rows[:n] {
		rate := "-"
		if r.cycles > 0 && r.wall > 0 {
			rate = fmt.Sprintf("%.1f", float64(r.cycles)/r.wall/1e6)
		}
		fmt.Fprintf(w, "  %-48s %8.3fs %12d %9s %-8s %d\n",
			r.key, r.wall, r.cycles, rate, r.source, r.worker)
	}
}
