// benchpair is the repository's timing gate. It builds
// internal/pipeline's test binary twice, once from the working tree
// (the change) and once from a checkout of the commit the change is
// judged against (the parent), then runs BenchmarkPipelineTick in the
// two binaries in alternation: pairs runs each, with the side that
// runs first swapped every pair. It fails when the change is slower in
// at least slowerLimit of the pairs.
//
//	go run ./scripts/benchpair <parent-checkout>
//
// scripts/check.sh makes the parent checkout with git archive and runs
// this from the repository root.
//
// Only pairs give a verdict on a shared host. Its speed drifts by tens
// of percent between minutes, so an absolute ns/op, or a ratio from a
// single pair, reads the host rather than the code. Two runs made
// seconds apart see nearly the same host, so each pair's ratio keeps
// the code's difference. Alternating the order cancels any advantage
// of running first.
//
// The rule, for independent pairs: if the code is the same, each pair
// reads the change slower with probability 1/2, and 29 or more of 40
// such pairs happen with probability 0.32%. The pair ratio of unchanged
// code on a 2-vCPU VM spreads wide: 330 A/A pairs read change/parent
// 0.76-1.49, quartiles 0.94-1.04. Scaled by 1.10, as a 10% slowdown of
// Tick would scale them, 84% of those pairs read slower, and at that
// rate 29 or more of 40 pairs happen with probability 98%. The A/A
// runs and the planted slowdowns the rule was checked against are in
// CHANGES.md.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

const (
	pairs       = 40
	slowerLimit = 29
	// benchtime gives one run about 1 s of Tick on a 2-vCPU VM:
	// long enough that start-up is noise, short enough that a pair
	// sees one host.
	benchtime = "8000000x"
	bench     = "BenchmarkPipelineTick"
	pkg       = "./internal/pipeline"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchpair <parent-checkout>")
		os.Exit(2)
	}
	if err := run(os.Args[1]); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func run(parentDir string) error {
	tmp, err := os.MkdirTemp("", "benchpair")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	change, err := build(".", filepath.Join(tmp, "change.test"))
	if err != nil {
		return err
	}
	parent, err := build(parentDir, filepath.Join(tmp, "parent.test"))
	if err != nil {
		return err
	}
	var changeOut, parentOut [][]byte
	for i := range pairs {
		first, second := change, parent
		if i%2 == 1 {
			first, second = parent, change
		}
		a, err := first.bench()
		if err != nil {
			return err
		}
		b, err := second.bench()
		if err != nil {
			return err
		}
		if i%2 == 1 {
			a, b = b, a
		}
		changeOut = append(changeOut, a)
		parentOut = append(parentOut, b)
	}
	report, err := verdict(changeOut, parentOut)
	fmt.Print(report)
	return err
}

// binary is a built test binary and the package directory it runs in.
type binary struct{ path, dir string }

// build compiles the pipeline package's test binary from the module
// rooted at root.
func build(root, out string) (binary, error) {
	cmd := exec.Command("go", "test", "-c", "-o", out, pkg)
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return binary{}, fmt.Errorf("building %s in %s: %v\n%s", pkg, root, err, msg)
	}
	return binary{out, filepath.Join(root, pkg)}, nil
}

// bench runs the benchmark once and returns its output.
func (b binary) bench() ([]byte, error) {
	cmd := exec.Command(b.path, "-test.run", "^$", "-test.bench", "^"+bench+"$",
		"-test.benchtime", benchtime, "-test.timeout", "5m")
	cmd.Dir = b.dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("%s: %v\n%s", b.path, err, out)
	}
	return out, nil
}

// benchLine matches the benchmark's result line, e.g.
// "BenchmarkPipelineTick-2   8000000   97.51 ns/op   0 B/op   0 allocs/op".
var benchLine = regexp.MustCompile(`(?m)^` + bench + `(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// nsPerOp returns the ns/op of the one result line in out.
func nsPerOp(out []byte) (float64, error) {
	m := benchLine.FindAllSubmatch(out, -1)
	if len(m) != 1 {
		return 0, fmt.Errorf("want one %s ns/op line, found %d in:\n%s", bench, len(m), out)
	}
	return strconv.ParseFloat(string(m[0][1]), 64)
}

// verdict judges pairs of runs, change[i] against parent[i]. It
// returns a report of every pair and an error when the change is
// slower in at least slowerLimit of pairs pairs, or when any run's
// output holds no ns/op result.
func verdict(change, parent [][]byte) (string, error) {
	if len(change) != pairs || len(parent) != pairs {
		return "", fmt.Errorf("want %d pairs of runs, got %d and %d", pairs, len(change), len(parent))
	}
	var sb strings.Builder
	ratios := make([]float64, pairs)
	slower := 0
	for i := range pairs {
		c, err := nsPerOp(change[i])
		if err != nil {
			return "", fmt.Errorf("pair %d, change: %v", i+1, err)
		}
		p, err := nsPerOp(parent[i])
		if err != nil {
			return "", fmt.Errorf("pair %d, parent: %v", i+1, err)
		}
		if c > p {
			slower++
		}
		ratios[i] = c / p
		fmt.Fprintf(&sb, "pair %2d: change %7.2f ns/op, parent %7.2f ns/op, ratio %.3f\n", i+1, c, p, ratios[i])
	}
	slices.Sort(ratios)
	fmt.Fprintf(&sb, "%s: change slower in %d of %d pairs (fails at %d); change/parent ratio median %.3f, quartiles %.3f-%.3f\n",
		bench, slower, pairs, slowerLimit, ratios[pairs/2], ratios[pairs/4], ratios[3*pairs/4])
	if slower >= slowerLimit {
		return sb.String(), fmt.Errorf("%s is slower than at the parent in %d of %d pairs (limit %d)", bench, slower, pairs, slowerLimit)
	}
	return sb.String(), nil
}
