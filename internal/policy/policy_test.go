package policy

import (
	"errors"
	"testing"

	"specctrl/internal/pipeline"
)

func sig(lowConf int) pipeline.FetchSignal {
	return pipeline.FetchSignal{PendingLowConf: lowConf, PendingBranches: lowConf, FetchWidth: 4}
}

func TestGatingWidth(t *testing.T) {
	g := Gating{Threshold: 2}
	if w := g.Width(sig(0)); w != 4 {
		t.Errorf("below threshold: width %d, want 4", w)
	}
	if w := g.Width(sig(1)); w != 4 {
		t.Errorf("just below threshold: width %d, want 4", w)
	}
	if w := g.Width(sig(2)); w != 0 {
		t.Errorf("at threshold: width %d, want 0", w)
	}
	if w := g.Width(sig(7)); w != 0 {
		t.Errorf("above threshold: width %d, want 0", w)
	}
}

func TestThrottleWidth(t *testing.T) {
	th := Throttle{Levels: []int{4, 2, 1}}
	for lc, want := range map[int]int{0: 4, 1: 2, 2: 1, 3: 1, 10: 1} {
		if w := th.Width(sig(lc)); w != want {
			t.Errorf("lowConf=%d: width %d, want %d", lc, w, want)
		}
	}
	// Levels wider than the machine clamp to FetchWidth.
	wide := Throttle{Levels: []int{8}}
	if w := wide.Width(sig(0)); w != 4 {
		t.Errorf("over-wide level: width %d, want clamped 4", w)
	}
}

func TestEagerBoostPatience(t *testing.T) {
	b := &EagerBoost{Threshold: 1, Patience: 2}
	p := b.Fresh()
	// Two over-threshold cycles are tolerated, the third gates.
	for i := 0; i < 2; i++ {
		if w := p.Width(sig(1)); w != 4 {
			t.Fatalf("patience cycle %d: width %d, want 4", i, w)
		}
	}
	if w := p.Width(sig(1)); w != 0 {
		t.Fatalf("patience exhausted: width %d, want 0", w)
	}
	// Confidence recovery resets the window.
	if w := p.Width(sig(0)); w != 4 {
		t.Fatalf("after recovery: width %d, want 4", w)
	}
	if w := p.Width(sig(1)); w != 4 {
		t.Fatalf("window restarted: width %d, want 4", w)
	}
	// Fresh instances do not share the counter.
	if w := b.Fresh().Width(sig(1)); w != 4 {
		t.Fatalf("fresh instance inherited run state: width %d, want 4", w)
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, spec := range []string{"gate:2", "throttle:4,2,1", "throttle:4,2,1,0", "boost:2,8"} {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if p.Name() != spec {
			t.Errorf("Parse(%q).Name() = %q, want round-trip", spec, p.Name())
		}
	}
	if p, err := Parse(""); err != nil || p != nil {
		t.Errorf("Parse(\"\") = %v, %v, want nil, nil", p, err)
	}
}

func TestParseRejects(t *testing.T) {
	for _, spec := range []string{
		"gate", "gate:x", "gate:0", "gate:-1",
		"throttle:", "throttle:0,2", "throttle:17", "throttle:4,-1",
		"boost:2", "boost:2,8,9", "boost:0,4", "boost:2,-1",
		"nonsense", "nonsense:1",
	} {
		if p, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) = %v, want error", spec, p)
		}
	}
}

// TestPolicyConfigValidate pins the pipeline.Config.Validate path: an
// invalid policy surfaces as a *pipeline.ConfigError naming Policy.
func TestPolicyConfigValidate(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	cfg.Policy = Gating{Threshold: 0}
	err := cfg.Validate()
	var ce *pipeline.ConfigError
	if !errors.As(err, &ce) || ce.Field != "Policy" {
		t.Fatalf("invalid policy: got %v, want ConfigError{Policy}", err)
	}
	cfg.Policy = Gating{Threshold: 1}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid policy rejected: %v", err)
	}
}
