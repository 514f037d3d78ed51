// Package policy implements the speculation-control policies the paper
// builds on top of confidence estimation (§5–§6), as
// pipeline.Policy values installed into pipeline.Config:
//
//   - Gating: the paper's pipeline gating — stop fetching outright
//     while the count of in-flight low-confidence branches is at or
//     above a threshold.
//   - Throttle: variable instruction fetch rate — map each
//     low-confidence occupancy level to a fetch width, degrading
//     speculation gradually instead of binarily ("Variable Instruction
//     Fetch Rate to Reduce Control Dependent Penalties", PAPERS.md).
//   - EagerBoost: confidence-boosted eager fallback — speculate
//     eagerly at full rate through low-confidence branches (as an
//     eager-execution machine would fork instead of stall) and fall
//     back to gating only when low-confidence occupancy persists.
//
// The package also defines Parse, the canonical spec-string form the
// CLIs and the policied experiment cells use ("gate:2",
// "throttle:4,2,1", "boost:2,8").
// Policy.Name() returns exactly that spec string, so names round-trip
// through Parse and are stable enough to hash into experiment cell
// addresses.
package policy

import (
	"fmt"
	"strconv"
	"strings"

	"specctrl/internal/pipeline"
)

// Gating is the paper's pipeline-gating policy: fetch at full rate
// until Threshold or more in-flight branches are low-confidence, then
// gate (fetch nothing) until the count drops. Threshold 1 is the
// paper's most aggressive configuration; higher thresholds gate less.
type Gating struct {
	// Threshold is the low-confidence occupancy at which fetch gates.
	Threshold int
}

// Name returns the canonical spec string, e.g. "gate:2".
func (g Gating) Name() string { return fmt.Sprintf("gate:%d", g.Threshold) }

// Width gates (0) at or above the threshold, full rate below it.
func (g Gating) Width(sig pipeline.FetchSignal) int {
	if sig.PendingLowConf >= g.Threshold {
		return 0
	}
	return sig.FetchWidth
}

// Validate rejects thresholds that could never fire or would gate
// unconditionally.
func (g Gating) Validate() error {
	if g.Threshold < 1 {
		return fmt.Errorf("gating threshold must be >= 1, got %d", g.Threshold)
	}
	return nil
}

// Throttle is the variable-fetch-rate policy: Levels[i] is the fetch
// width while i in-flight branches are low-confidence; occupancies at
// or beyond the last level clamp into it. Levels{4, 2, 1} on a 4-wide
// machine fetches full rate with no low-confidence branch in flight,
// half rate with one, and trickles single instructions beyond that; a
// trailing 0 turns the last level into a full gate.
type Throttle struct {
	// Levels maps low-confidence occupancy to fetch width.
	Levels []int
}

// Name returns the canonical spec string, e.g. "throttle:4,2,1".
func (t Throttle) Name() string {
	parts := make([]string, len(t.Levels))
	for i, w := range t.Levels {
		parts[i] = strconv.Itoa(w)
	}
	return "throttle:" + strings.Join(parts, ",")
}

// Width looks the occupancy up in Levels (clamping past the end).
func (t Throttle) Width(sig pipeline.FetchSignal) int {
	i := sig.PendingLowConf
	if i >= len(t.Levels) {
		i = len(t.Levels) - 1
	}
	w := t.Levels[i]
	if w > sig.FetchWidth {
		w = sig.FetchWidth
	}
	return w
}

// Validate requires at least one level, non-negative widths, and a
// positive zero-occupancy width (a machine that cannot fetch with no
// low-confidence branch in flight never starts).
func (t Throttle) Validate() error {
	if len(t.Levels) == 0 {
		return fmt.Errorf("throttle needs at least one fetch-width level")
	}
	for i, w := range t.Levels {
		if w < 0 || w > 16 {
			return fmt.Errorf("throttle level %d width %d out of range [0,16]", i, w)
		}
	}
	if t.Levels[0] < 1 {
		return fmt.Errorf("throttle zero-occupancy width must be >= 1, got %d", t.Levels[0])
	}
	return nil
}

// EagerBoost is the confidence-boosted eager fallback: the machine
// prefers eager speculation — full-rate fetch straight through
// low-confidence branches, as an eager-execution front end would fork
// down both paths rather than stall — and falls back to gating only
// when low-confidence occupancy has held at or above Threshold for more
// than Patience consecutive fetch-eligible cycles. Every cycle the
// occupancy dips below the threshold, confidence "boosts" the machine
// back to eager mode and the patience window restarts.
//
// EagerBoost carries run state (the consecutive-cycle counter), so it
// implements Fresh: each simulation gets a private instance and a
// shared pipeline.Config value stays safe to reuse across runs.
type EagerBoost struct {
	// Threshold is the low-confidence occupancy that starts (and, held,
	// exhausts) the patience window.
	Threshold int
	// Patience is how many consecutive over-threshold cycles the policy
	// speculates through before gating.
	Patience int

	run int // consecutive over-threshold cycles (per-Sim state)
}

// Name returns the canonical spec string, e.g. "boost:2,8".
func (b *EagerBoost) Name() string { return fmt.Sprintf("boost:%d,%d", b.Threshold, b.Patience) }

// Width fetches at full rate until the patience window exhausts, then
// gates until occupancy drops below the threshold.
func (b *EagerBoost) Width(sig pipeline.FetchSignal) int {
	if sig.PendingLowConf >= b.Threshold {
		b.run++
		if b.run > b.Patience {
			return 0
		}
	} else {
		b.run = 0
	}
	return sig.FetchWidth
}

// Fresh returns a private instance with the patience counter reset.
func (b *EagerBoost) Fresh() pipeline.Policy {
	c := *b
	c.run = 0
	return &c
}

// Validate rejects thresholds that could never fire and negative
// patience.
func (b *EagerBoost) Validate() error {
	if b.Threshold < 1 {
		return fmt.Errorf("boost threshold must be >= 1, got %d", b.Threshold)
	}
	if b.Patience < 0 {
		return fmt.Errorf("boost patience must be >= 0, got %d", b.Patience)
	}
	return nil
}

// Parse builds a policy from its canonical spec string — the same form
// Policy.Name() returns, so names round-trip:
//
//	gate:<threshold>            pipeline gating
//	throttle:<w0>,<w1>,...      variable fetch rate by low-conf count
//	boost:<threshold>,<patience> confidence-boosted eager fallback
//
// The empty spec returns (nil, nil): no policy. The returned policy is
// already validated.
func Parse(spec string) (pipeline.Policy, error) {
	if spec == "" {
		return nil, nil
	}
	kind, arg, _ := strings.Cut(spec, ":")
	var p interface {
		pipeline.Policy
		Validate() error
	}
	switch kind {
	case "gate":
		t, err := strconv.Atoi(arg)
		if err != nil {
			return nil, fmt.Errorf("policy %q: gate threshold %q is not an integer", spec, arg)
		}
		p = Gating{Threshold: t}
	case "throttle":
		levels, err := parseInts(arg)
		if err != nil {
			return nil, fmt.Errorf("policy %q: %v", spec, err)
		}
		p = Throttle{Levels: levels}
	case "boost":
		args, err := parseInts(arg)
		if err != nil || len(args) != 2 {
			return nil, fmt.Errorf("policy %q: boost takes <threshold>,<patience>", spec)
		}
		p = &EagerBoost{Threshold: args[0], Patience: args[1]}
	default:
		return nil, fmt.Errorf("unknown policy %q (want gate:<t>, throttle:<w0>,<w1>,..., or boost:<t>,<p>)", spec)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("policy %q: %v", spec, err)
	}
	return p, nil
}

// parseInts parses a non-empty comma-separated integer list.
func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("empty integer list")
	}
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, part := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("%q is not an integer", part)
		}
		out[i] = n
	}
	return out, nil
}
