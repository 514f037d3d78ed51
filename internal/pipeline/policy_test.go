package pipeline

import (
	"reflect"
	"testing"

	"specctrl/internal/bpred"
	"specctrl/internal/conf"
	"specctrl/internal/isa"
)

// gatePolicy is the paper's gating policy, re-declared locally: the
// pipeline package cannot import internal/policy (which imports it), and
// the equivalence tests here are about the Tick-side contract, not the
// implementations.
type gatePolicy struct{ threshold int }

func (g gatePolicy) Name() string { return "testgate" }
func (g gatePolicy) Width(sig FetchSignal) int {
	if sig.PendingLowConf >= g.threshold {
		return 0
	}
	return sig.FetchWidth
}

// widthPolicy throttles every cycle to a fixed width.
type widthPolicy struct{ width int }

func (w widthPolicy) Name() string          { return "testwidth" }
func (w widthPolicy) Width(FetchSignal) int { return w.width }

// statefulPolicy counts its consultations; Fresh gives each Sim its own
// counter.
type statefulPolicy struct{ consults int }

func (p *statefulPolicy) Name() string { return "teststateful" }
func (p *statefulPolicy) Width(sig FetchSignal) int {
	p.consults++
	return sig.FetchWidth
}
func (p *statefulPolicy) Fresh() Policy { return &statefulPolicy{} }

func policyTestConfig() Config {
	cfg := testConfig()
	cfg.Estimators = []conf.Estimator{conf.NewJRS(conf.DefaultJRS)}
	cfg.MaxCommitted = 30_000
	return cfg
}

// runDriver drives a sim the way the old external gating loop did:
// poll PendingLowConf before each Tick and withhold fetch at or above
// the threshold.
func runDriver(t *testing.T, cfg Config, prog *isa.Program, threshold int) *Stats {
	t.Helper()
	sim := MustNew(cfg, prog, bpred.NewGshare(12))
	for {
		allow := sim.PendingLowConf() < threshold
		done, err := sim.Tick(allow)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	return sim.Finish()
}

// TestPolicyMatchesExternalDriver is the timing-fidelity contract the
// frontier experiment's byte-identity rests on: an installed gating
// policy must reproduce the old external PendingLowConf-before-Tick
// driver cycle for cycle, statistic for statistic.
func TestPolicyMatchesExternalDriver(t *testing.T) {
	prog := loopProgram(1 << 30)
	for _, threshold := range []int{1, 2, 4} {
		external := runDriver(t, policyTestConfig(), prog, threshold)

		cfg := policyTestConfig()
		cfg.Policy = gatePolicy{threshold: threshold}
		internal, err := MustNew(cfg, prog, bpred.NewGshare(12)).Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(external, internal) {
			t.Errorf("threshold %d: installed policy diverges from external driver:\nexternal: %+v\ninternal: %+v",
				threshold, external, internal)
		}
		if internal.GatedCycles == 0 {
			t.Errorf("threshold %d: no gated cycles; the comparison is vacuous", threshold)
		}
	}
}

// TestPolicyFullWidthIsTransparent: a policy that always returns full
// width must not perturb the run at all.
func TestPolicyFullWidthIsTransparent(t *testing.T) {
	prog := loopProgram(1 << 30)
	base, err := MustNew(policyTestConfig(), prog, bpred.NewGshare(12)).Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg := policyTestConfig()
	cfg.Policy = widthPolicy{width: cfg.FetchWidth}
	full, err := MustNew(cfg, prog, bpred.NewGshare(12)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, full) {
		t.Errorf("full-width policy perturbed the run:\nbase: %+v\npolicied: %+v", base, full)
	}
}

// TestPolicyThrottleSlowsFetch: a width-1 throttle on a 4-wide machine
// must cost cycles but commit identical architectural work.
func TestPolicyThrottleSlowsFetch(t *testing.T) {
	prog := loopProgram(1 << 30)
	base, err := MustNew(policyTestConfig(), prog, bpred.NewGshare(12)).Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg := policyTestConfig()
	cfg.Policy = widthPolicy{width: 1}
	throttled, err := MustNew(cfg, prog, bpred.NewGshare(12)).Run()
	if err != nil {
		t.Fatal(err)
	}
	// Both runs stop at the MaxCommitted budget; the wide fetch group
	// may overshoot it by at most a group's worth of instructions.
	cfg2 := policyTestConfig()
	for _, st := range []*Stats{base, throttled} {
		if st.Committed < cfg2.MaxCommitted || st.Committed >= cfg2.MaxCommitted+uint64(cfg2.FetchWidth) {
			t.Errorf("committed %d outside [%d, %d)", st.Committed,
				cfg2.MaxCommitted, cfg2.MaxCommitted+uint64(cfg2.FetchWidth))
		}
	}
	if throttled.Cycles <= base.Cycles {
		t.Errorf("width-1 throttle did not cost cycles: %d <= %d", throttled.Cycles, base.Cycles)
	}
	if err := throttled.CycleAccounts.CheckInvariant(throttled.Cycles); err != nil {
		t.Errorf("cycle accounting broken under throttle: %v", err)
	}
}

// TestPolicyGatedAccounting: a policy gate is accounted exactly like an
// externally withheld cycle.
func TestPolicyGatedAccounting(t *testing.T) {
	cfg := policyTestConfig()
	cfg.Policy = gatePolicy{threshold: 1}
	st, err := MustNew(cfg, loopProgram(1<<30), bpred.NewGshare(12)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.GatedCycles == 0 {
		t.Fatal("gating policy never gated")
	}
	if got := st.CycleAccounts[BucketGated]; got != st.GatedCycles {
		t.Errorf("BucketGated %d != GatedCycles %d", got, st.GatedCycles)
	}
	if err := st.CycleAccounts.CheckInvariant(st.Cycles); err != nil {
		t.Errorf("cycle accounting broken under policy gating: %v", err)
	}
}

// TestPolicyFresh: a stateful policy (Fresh implementer) must not share
// run state across Sims built from the same Config value.
func TestPolicyFresh(t *testing.T) {
	shared := &statefulPolicy{}
	cfg := policyTestConfig()
	cfg.Policy = shared
	prog := loopProgram(1 << 30)
	if _, err := MustNew(cfg, prog, bpred.NewGshare(12)).Run(); err != nil {
		t.Fatal(err)
	}
	if shared.consults != 0 {
		t.Fatalf("Config.Policy instance was consulted directly (%d times); New must take a Fresh copy",
			shared.consults)
	}
}

// TestSteadyStateAllocsWithPolicy extends the PR 4 allocation gate to
// the policy path: an installed (value-type) policy must keep the
// steady-state hot loop allocation-free, and the nil-policy runs pinned
// by TestSteadyStateAllocs cover the fast path.
func TestSteadyStateAllocsWithPolicy(t *testing.T) {
	cfg := testConfig()
	cfg.MaxCycles = 0
	cfg.Estimators = []conf.Estimator{conf.NewJRS(conf.DefaultJRS)}
	cfg.Policy = gatePolicy{threshold: 2}
	sim := steadySim(t, cfg)
	avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			if _, err := sim.Tick(true); err != nil {
				t.Fatal(err)
			}
		}
	})
	if avg != 0 {
		t.Errorf("steady-state Tick with policy allocates: %.2f allocs per 1000 cycles, want 0", avg)
	}
}

// BenchmarkPolicyOverheadNil times the nil-policy hot path, the
// configuration every non-policy experiment runs, to compare against
// BenchmarkPolicyOverheadGate.
func BenchmarkPolicyOverheadNil(b *testing.B) {
	cfg := testConfig()
	cfg.MaxCycles = 0
	cfg.Estimators = []conf.Estimator{conf.NewJRS(conf.DefaultJRS)}
	benchTick(b, cfg)
}

// BenchmarkPolicyOverheadGate measures the per-cycle cost of an
// installed gating policy (one FetchSignal snapshot + interface call).
func BenchmarkPolicyOverheadGate(b *testing.B) {
	cfg := testConfig()
	cfg.MaxCycles = 0
	cfg.Estimators = []conf.Estimator{conf.NewJRS(conf.DefaultJRS)}
	cfg.Policy = gatePolicy{threshold: 2}
	benchTick(b, cfg)
}
