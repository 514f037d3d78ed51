package main

import (
	"math"
	"slices"
)

// median returns the middle of xs (the mean of the two middle values
// for even lengths); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the average of xs; 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartiles of xs by the method
// of Python's statistics.quantiles(xs, n=4) (the "exclusive" method),
// so spreads computed here match ones computed from the same results
// with Python. A single value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// tailPct is the percentile op_tail_ms reports. serve-mixed's warm jobs
// leave 36 samples beyond p99 in a run, but across runs its p99 moved
// 1.6 times as much as the median: the host's slowdowns are amplified in
// the tail. p90 moved no more than the median.
const tailPct = 90

// tail returns the tailPct-th percentile of xs (nearest rank) and
// tailPct, when at least ten samples lie beyond it. With fewer than 100
// samples no tail can be stated, and it returns 0, 0.
func tail(xs []float64) (value, pct float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	idx := int(math.Ceil(tailPct*float64(n)/100-1e-9)) - 1
	if n-1-idx < 10 {
		return 0, 0
	}
	return s[idx], tailPct
}

// floors are absolute regression allowances that override a metric's
// share bound when larger: set-up time is tens of milliseconds, where a
// share of it is below process-start jitter.
var floors = map[string]float64{"setup_s": 0.050}

// allowance returns by how much a metric may read worse than base
// before it counts as a regression: bound as a share of base, or the
// metric's absolute floor, whichever is larger.
func allowance(name string, bound, base float64) float64 {
	return max(bound*math.Abs(base), floors[name])
}

// worseBy returns how much worse v reads than base (negative when
// better), given the metric's direction.
func worseBy(higher bool, base, v float64) float64 {
	if higher {
		return base - v
	}
	return v - base
}
