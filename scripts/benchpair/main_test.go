package main

import (
	"fmt"
	"strings"
	"testing"
)

// aaPairs are 40 consecutive pairs (change ns/op, parent ns/op) of
// BenchmarkPipelineTick from two builds of the same commit, run
// alternately on a 2-vCPU VM. The change reads slower in 20 of them.
var aaPairs = [pairs][2]float64{
	{103.2, 114.3}, {112.7, 117.5}, {95.02, 110.5}, {110.9, 115.7}, {113.0, 112.5},
	{116.3, 114.6}, {118.1, 116.9}, {117.0, 115.7}, {110.7, 115.3}, {114.3, 117.7},
	{107.3, 107.3}, {98.46, 101.1}, {101.6, 91.98}, {116.0, 117.3}, {87.72, 99.96},
	{104.8, 96.73}, {101.1, 95.34}, {98.01, 104.2}, {96.64, 114.4}, {110.2, 95.63},
	{103.6, 102.6}, {118.3, 116.2}, {112.9, 103.2}, {124.6, 134.6}, {127.3, 123.6},
	{114.6, 124.0}, {137.8, 109.6}, {136.5, 143.0}, {137.4, 131.7}, {117.7, 141.0},
	{123.7, 136.2}, {121.8, 139.9}, {119.4, 116.8}, {115.3, 115.2}, {114.8, 110.0},
	{136.4, 132.6}, {129.4, 123.9}, {113.1, 142.8}, {147.1, 122.3}, {125.0, 130.2},
}

// output is what one benchmark run prints.
func output(ns float64) []byte {
	return []byte(fmt.Sprintf("goos: linux\ngoarch: amd64\npkg: specctrl/internal/pipeline\n"+
		"BenchmarkPipelineTick-2   \t 8000000\t%10.2f ns/op\t       0 B/op\t       0 allocs/op\nPASS\n", ns))
}

// runs returns the canned outputs of aaPairs with the change's times
// scaled by slowdown.
func runs(slowdown float64) (change, parent [][]byte) {
	for _, p := range aaPairs {
		change = append(change, output(p[0]*slowdown))
		parent = append(parent, output(p[1]))
	}
	return change, parent
}

func TestVerdictPassesAA(t *testing.T) {
	report, err := verdict(runs(1))
	if err != nil {
		t.Fatalf("unchanged code failed the gate: %v\n%s", err, report)
	}
	if !strings.Contains(report, "slower in 20 of 40 pairs") {
		t.Errorf("report does not count 20 slower pairs:\n%s", report)
	}
}

func TestVerdictFailsTenPercentSlowdown(t *testing.T) {
	report, err := verdict(runs(1.10))
	if err == nil {
		t.Fatalf("a 10%% slowdown passed the gate:\n%s", report)
	}
	if !strings.Contains(err.Error(), "32 of 40 pairs") {
		t.Errorf("error = %v, want it to count 32 of 40 slower pairs", err)
	}
}

// TestVerdictFailsUnparseable: a run whose output holds no ns/op line,
// or more than one, fails the gate, whichever side it is and whatever
// the other pairs read.
func TestVerdictFailsUnparseable(t *testing.T) {
	for _, bad := range []string{
		"",
		"PASS\n",
		"--- FAIL: BenchmarkPipelineTick\n    alloc_test.go:21: warm-up ended early\nFAIL\n",
		"BenchmarkPipelineTick-2   \t 8000000\t       NaN ns/op\n",
		"BenchmarkPipelineTickTraced-2   \t 8000000\t 97.00 ns/op\n",
		string(output(97)) + string(output(98)),
	} {
		for side := range 2 {
			change, parent := runs(1)
			if side == 0 {
				change[7] = []byte(bad)
			} else {
				parent[7] = []byte(bad)
			}
			if report, err := verdict(change, parent); err == nil {
				t.Errorf("side %d, output %q passed the gate:\n%s", side, bad, report)
			}
		}
	}
	change, parent := runs(1)
	if _, err := verdict(change[:pairs-1], parent[:pairs-1]); err == nil {
		t.Error("too few pairs passed the gate")
	}
}
