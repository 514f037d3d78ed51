package main

import (
	"math"
	"testing"
	"time"
)

func timeAt(tick int64) time.Time { return time.Unix(tick, 0) }

func TestMedianAndQuartiles(t *testing.T) {
	// Quartiles are those of Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{4, 2, 3, 1}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 30, 60, 90},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if m := median(c.xs); m != c.m || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%v: q1, median, q3 = %v, %v, %v; want %v, %v, %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
	if q1, q3 := quartiles(nil); median(nil) != 0 || q1 != 0 || q3 != 0 {
		t.Error("empty input should give 0")
	}
}

func TestTailPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the rule must sort
		}
		return xs
	}
	cases := []struct {
		n          int
		value, pct float64
	}{
		{3600, 3240, 90}, // a serve-mixed run's pooled warm jobs
		{1000, 900, 90},
		{101, 91, 90},
		{100, 90, 90}, // exactly 10 beyond
		{99, 0, 0},    // 9 beyond: no tail
		{14, 0, 0},
		{0, 0, 0},
	}
	for _, c := range cases {
		v, pct := tail(seq(c.n))
		if v != c.value || pct != c.pct {
			t.Errorf("n=%d: tail = %v at p%v; want %v at p%v", c.n, v, pct, c.value, c.pct)
		}
	}
}

func TestOpMetrics(t *testing.T) {
	// A batch pass: the mean experiment, and no tail percentile, so the
	// tail repeats it.
	batch := passResult{wall: 10 * time.Second, opMS: []float64{1000, 2000, 6000}}
	m := batch.metrics()
	if m["op_ms"].Value != 3000 || m["op_tail_ms"].Value != 3000 || m["ops_per_s"].Value != 0.3 {
		t.Errorf("batch: %v", m)
	}
	// A serve pass: the median warm job, p90 over 1200 samples, and
	// throughput over the warm phase only.
	serve := passResult{wall: 10 * time.Second, warm: 4 * time.Second}
	for i := range 1200 {
		serve.opMS = append(serve.opMS, float64(i+1))
	}
	m = serve.metrics()
	if m["op_ms"].Value != 600.5 || m["op_tail_ms"].Value != 1080 || m["ops_per_s"].Value != 300 {
		t.Errorf("serve: %v", m)
	}
}

func TestAtReferenceSpeed(t *testing.T) {
	// Pass times scale with the slowdown squared, set-up with the
	// slowdown itself; sizes, counts and ratios do not scale.
	m := metrics{}
	m.set("wall_s", "s", 18)
	m.set("op_ms", "ms", 9)
	m.set("ops_per_s", "1/s", 100)
	m.set("setup_s", "s", 0.003)
	m.set("live_heap_mb", "MiB", 280)
	m.set("work.cells_n", "count", 64)
	m.set("runner.utilization", "ratio", 0.9)
	m.atReferenceSpeed(1.5)
	want := map[string]float64{
		"wall_s": 8, "op_ms": 4, "ops_per_s": 225, "setup_s": 0.002,
		"live_heap_mb": 280, "work.cells_n": 64, "runner.utilization": 0.9,
	}
	for name, v := range want {
		if got := m[name].Value; math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %v at reference speed, want %v", name, got, v)
		}
	}
}

func TestHostSamplerStops(t *testing.T) {
	h := startHostSampler()
	time.Sleep(3 * calibrationEvery)
	if s := h.slowdown(); !(s > 0) || math.IsInf(s, 0) {
		t.Errorf("slowdown = %v, want a positive factor", s)
	}
}

func TestAllowanceAndDirection(t *testing.T) {
	// setup_s: a share of a few tens of milliseconds is below the
	// 50 ms floor, so the floor applies; a large base uses the share.
	if got := allowance("setup_s", 0.25, 0.040); got != 0.050 {
		t.Errorf("setup_s allowance at 40ms = %v, want the 50ms floor", got)
	}
	if got := allowance("setup_s", 0.25, 1.0); got != 0.25 {
		t.Errorf("setup_s allowance at 1s = %v, want 0.25", got)
	}
	if got := allowance("wall_s", 0.1, 30); math.Abs(got-3) > 1e-12 {
		t.Errorf("wall_s allowance = %v, want 3", got)
	}
	if got := allowance("wall_s", 0.1, 0.01); math.Abs(got-0.001) > 1e-12 {
		t.Errorf("wall_s has no floor: allowance = %v", got)
	}
	if worseBy(false, 10, 12) != 2 || worseBy(true, 10, 12) != -2 {
		t.Error("worseBy direction wrong")
	}
}

func TestJudge(t *testing.T) {
	wall := specMetric{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}
	rate := specMetric{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}
	steady := func(base float64, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = base + 0.001*float64(i%3)
		}
		return xs
	}
	cases := []struct {
		name string
		m    specMetric
		a, b []float64
		want string
	}{
		{"faster", wall, steady(10, 10), steady(9, 10), "better"},
		{"same", wall, steady(10, 10), steady(10, 10), "within bound"},
		{"slower within bound", wall, steady(10, 10), steady(10.5, 10), "within bound"},
		{"slower beyond bound", wall, steady(10, 10), steady(11.5, 10), "worse"},
		{"higher is better", rate, steady(100, 10), steady(120, 10), "better"},
		{"lower rate is worse", rate, steady(100, 10), steady(80, 10), "worse"},
		{"noisy parent", wall,
			[]float64{8, 12, 8, 12, 8, 12, 8, 12, 8, 12}, steady(10, 10), "unresolved"},
		{"noisy but every change run better", wall,
			[]float64{8, 12, 8, 12, 8, 12, 8, 12, 8, 12}, steady(5, 10), "better"},
	}
	for _, c := range cases {
		if r := judge(c.m, c.a, c.b); r.verdict != c.want {
			t.Errorf("%s: verdict %q, want %q (wins %d/%d)", c.name, r.verdict, c.want, r.wins, r.pairs)
		}
	}
}

func TestCompareRunsNeedsAlternatingPairs(t *testing.T) {
	spec := benchmarkSpec{
		Workloads: []specWorkload{{Name: "regen-all"}},
		EndToEnd:  []specMetric{{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}},
	}
	mk := func(n int, offset int64, alternate bool) benchFile {
		var f benchFile
		for i := range n {
			// A pair occupies two ticks; which side takes the first
			// tick alternates when asked.
			tick := int64(2*i) + offset
			if alternate && i%2 == 1 {
				tick = int64(2*i) + 1 - offset
			}
			f.Runs = append(f.Runs, runRecord{
				Workload: "regen-all", Index: i, Start: timeAt(tick),
				result: result{Metrics: metrics{"wall_s": {Value: 10, Unit: "s"}}},
			})
		}
		return f
	}
	if _, err := compareRuns(spec, mk(9, 0, true), mk(9, 1, true)); err == nil {
		t.Error("9 pairs accepted")
	}
	if _, err := compareRuns(spec, mk(10, 0, false), mk(10, 1, false)); err == nil {
		t.Error("pairs that never alternate accepted")
	}
	rows, err := compareRuns(spec, mk(10, 0, true), mk(10, 1, true))
	if err != nil || len(rows) != 1 || rows[0].verdict != "within bound" {
		t.Fatalf("alternating pairs: %v, %+v", err, rows)
	}
}
