package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
)

// specFile is the benchmark's definition at the repository root: its
// workloads, metrics, directions and regression bounds.
const specFile = "BENCHMARK.json"

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

func loadSpec(path string) (benchmarkSpec, error) {
	var s benchmarkSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func (s benchmarkSpec) workloadNames() []string {
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	return names
}

// minPairs is the fewest parent/change pairs a comparison accepts.
const minPairs = 10

// row is one workload × metric of a comparison.
type row struct {
	workload                   string
	metric                     specMetric
	parent, change             [3]float64 // q1, median, q3
	wins, pairs                int
	verdict                    string
	parentFailed, changeFailed int
}

func cmdCompare(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: specbench compare PARENT.json CHANGE.json (from the repository root, for BENCHMARK.json's bounds)")
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	var files [2]benchFile
	for i := range files {
		data, err := os.ReadFile(args[i])
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", args[i], err)
		}
	}
	rows, err := compareRuns(spec, files[0], files[1])
	if err != nil {
		return err
	}
	printRows(os.Stdout, rows)
	return nil
}

// compareRuns judges every workload × end-to-end metric the two files
// share by the rules of a paired comparison: run i of the parent pairs
// with run i of the change, and the pairs must alternate which side ran
// first.
func compareRuns(spec benchmarkSpec, parent, change benchFile) ([]row, error) {
	var rows []row
	for _, w := range spec.Workloads {
		a, b := runsOf(parent, w.Name), runsOf(change, w.Name)
		if len(a) == 0 && len(b) == 0 {
			continue
		}
		n := min(len(a), len(b))
		if n < minPairs {
			return nil, fmt.Errorf("%s: %d pairs; a comparison needs at least %d", w.Name, n, minPairs)
		}
		for i := range n {
			if a[i].Index != b[i].Index {
				return nil, fmt.Errorf("%s: run %d of one side pairs with run %d of the other", w.Name, a[i].Index, b[i].Index)
			}
			if i > 0 && a[i].Start.Before(b[i].Start) == a[i-1].Start.Before(b[i-1].Start) {
				return nil, fmt.Errorf("%s: pairs %d and %d ran in the same order; make both files with one `bench -against` run", w.Name, i-1, i)
			}
		}
		pf, cf := 0, 0
		for i := range n {
			pf += a[i].Failed
			cf += b[i].Failed
		}
		for _, m := range spec.EndToEnd {
			var av, bv []float64
			for i := range n {
				av = append(av, a[i].Metrics[m.Name].Value)
				bv = append(bv, b[i].Metrics[m.Name].Value)
			}
			r := judge(m, av, bv)
			r.workload, r.parentFailed, r.changeFailed = w.Name, pf, cf
			if cf > pf && r.verdict == "better" {
				r.verdict = "no gain: more failures"
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

func runsOf(f benchFile, workload string) []runRecord {
	var out []runRecord
	for _, r := range f.Runs {
		if r.Workload == workload {
			out = append(out, r)
		}
	}
	slices.SortFunc(out, func(x, y runRecord) int { return x.Index - y.Index })
	return out
}

// judge compares one metric's paired values (a: parent, b: change):
//   - unresolved: either side's quartile distance exceeds the metric's
//     allowance, unless every change run beats every parent run;
//   - better: the change wins at least nine tenths of the pairs (ties
//     count for neither) and the medians differ by more than the
//     parent's quartile distance;
//   - worse: the change's median is worse by more than the allowance;
//   - within bound: otherwise.
func judge(m specMetric, a, b []float64) row {
	higher := m.Better == "higher"
	r := row{metric: m, pairs: len(a)}
	r.parent[0], r.parent[2] = quartiles(a)
	r.change[0], r.change[2] = quartiles(b)
	r.parent[1], r.change[1] = median(a), median(b)
	allow := allowance(m.Name, m.Bound, r.parent[1])
	parentIQR := r.parent[2] - r.parent[0]
	allBetter := true
	for i := range a {
		if worseBy(higher, a[i], b[i]) < 0 {
			r.wins++
		}
		for j := range b {
			if worseBy(higher, a[i], b[j]) >= 0 {
				allBetter = false
			}
		}
	}
	d := worseBy(higher, r.parent[1], r.change[1])
	switch {
	case parentIQR > allow || r.change[2]-r.change[0] > allow:
		r.verdict = "unresolved"
		if allBetter {
			r.verdict = "better"
		}
	case d < 0 && r.wins*10 >= 9*r.pairs && -d > parentIQR:
		r.verdict = "better"
	case d > allow:
		r.verdict = "worse"
	default:
		r.verdict = "within bound"
	}
	return r
}

func printRows(w io.Writer, rows []row) {
	fmt.Fprintf(w, "%-16s %-13s %-5s %-34s %-34s %8s %6s  %s\n",
		"workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "delta", "wins", "verdict")
	last := ""
	for _, r := range rows {
		if r.workload != last {
			fmt.Fprintf(w, "# %s: failed ops parent %d, change %d\n", r.workload, r.parentFailed, r.changeFailed)
			last = r.workload
		}
		delta := 0.0
		if r.parent[1] != 0 {
			delta = (r.change[1] - r.parent[1]) / r.parent[1]
		}
		fmt.Fprintf(w, "%-16s %-13s %-5s %-34s %-34s %+7.2f%% %6s  %s\n",
			r.workload, r.metric.Name, r.metric.Unit, triple(r.parent), triple(r.change),
			100*delta, fmt.Sprintf("%d/%d", r.wins, r.pairs), r.verdict)
	}
}

func triple(v [3]float64) string { return fmt.Sprintf("%.4g [%.4g, %.4g]", v[1], v[0], v[2]) }
