package main

import "specctrl/internal/experiments"

// metric is one named measurement with its unit, as printed in every
// result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to measurements.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// metricDef is one metric the benchmark defines: its name, unit and
// which direction is better. BENCHMARK.json lists the same names; the
// drift test keeps the two in step.
type metricDef struct {
	name, unit string
	higher     bool
}

// endToEnd are the metrics an untraced run reports: what a user running
// a regeneration or a client of the service sees. An "op" is one
// experiment in a batch workload and one warm job in serve-mixed.
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"wall_s", "s", false},
	{"cpu_s", "s", false},
	{"live_heap_mb", "MiB", false},
	{"cold_s", "s", false},
	{"ops_per_s", "1/s", true},
	{"op_ms", "ms", false},
	{"op_tail_ms", "ms", false},
}

// cpuLayers are the layers the traced run's CPU profile is folded into
// (see layerOf), in report order.
var cpuLayers = []string{
	"pipeline", "cache", "emu", "mem", "bpred", "conf", "metrics", "replay",
	"experiments", "runner", "serve", "obs", "json", "net", "gc", "runtime",
	"harness", "other",
}

// perLayer returns the metrics a traced run reports, in report order.
// Every workload reports every one of them; a layer a workload never
// enters reads 0.
func perLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit string, higher bool) { defs = append(defs, metricDef{name, unit, higher}) }
	for _, l := range cpuLayers {
		add("cpu."+l+"_s", "s", false)
	}
	add("cpu.total_s", "s", false)
	for _, s := range []string{"simulate", "record", "replay"} {
		add("span."+s+"_s", "s", false)
		add("span."+s+"_n", "count", false)
	}
	add("span.arch_record_s", "s", false)
	add("span.arch_replay_s", "s", false)
	add("span.merge_s", "s", false)
	add("replay.trace_hit_ratio", "ratio", true)
	add("runner.cell_run_s", "s", false)
	add("runner.cell_wait_s", "s", false)
	add("runner.cells_n", "count", false)
	add("runner.stolen_n", "count", false)
	add("runner.max_cell_s", "s", false)
	add("runner.utilization", "ratio", true)
	for _, e := range experiments.Experiments() {
		add(expMetric(e.Name), "s", false)
	}
	add("serve.submit_ms", "ms", false)
	add("serve.queue_ms", "ms", false)
	add("serve.exec_ms", "ms", false)
	add("serve.result_ms", "ms", false)
	add("serve.store_hit_ratio", "ratio", true)
	add("serve.cells_simulated_n", "count", false)
	add("serve.store_mb", "MiB", false)
	add("runtime.peak_rss_mb", "MiB", false)
	add("runtime.gc_n", "count", false)
	add("runtime.alloc_mb", "MiB", false)
	add("work.sim_runs_n", "count", false)
	add("work.cells_n", "count", false)
	add("op.tail_pct", "%", true)
	add("op.samples_n", "count", true)
	add("trace_overhead_frac", "ratio", false)
	add("host.slowdown", "ratio", false)
	return defs
}

// expMetric names the per-experiment span metric.
func expMetric(name string) string { return "exp." + name + "_s" }
