package main

import (
	"regexp"
	"strings"
	"testing"
)

// validName and validUnit are the forms every workload or metric name,
// and every unit, must take.
var (
	validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`).MatchString
	validUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString
)

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and specbench in
// step: the same workloads, and the same metrics with the same units and
// directions, in the same order. TestSmoke checks that a pass emits
// exactly these metrics.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	spec, err := loadSpec("../../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	if got, want := strings.Join(spec.workloadNames(), ","), strings.Join(names, ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s; specbench has %s", got, want)
	}
	check := func(kind string, listed []specMetric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics; specbench emits %d", kind, len(listed), len(defs))
		}
		for i := range min(len(listed), len(defs)) {
			l, d := listed[i], defs[i]
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if l.Name != d.name || l.Unit != d.unit || l.Better != better {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s, %s); specbench has %s (%s, %s)",
					kind, i, l.Name, l.Unit, l.Better, d.name, d.unit, better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())

	seen := map[string]bool{}
	for _, n := range names {
		if !validName(n) || seen[n] {
			t.Errorf("workload name %q is invalid or repeated", n)
		}
		seen[n] = true
	}
	maxBound, setupBound := 0.0, 0.0
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !validName(m.Name) || seen[m.Name] || !validUnit(m.Unit) {
			t.Errorf("metric %q (unit %q) is invalid or repeated", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
}
