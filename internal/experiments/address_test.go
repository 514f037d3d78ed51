package experiments

import (
	"testing"

	"specctrl/internal/conf"
	"specctrl/internal/runner"
)

func addrSpec() runner.Spec {
	return runner.Spec{Experiment: "table3", Workload: "compress", Predictor: "mcfarling", Variant: "main"}
}

func TestCellAddressStable(t *testing.T) {
	a1 := DefaultParams().CellAddress(addrSpec())
	a2 := DefaultParams().CellAddress(addrSpec())
	if a1 != a2 {
		t.Fatalf("same params produced different addresses: %s vs %s", a1, a2)
	}
	if len(a1) != 64 {
		t.Fatalf("address %q is not a hex SHA-256", a1)
	}
}

// TestCellAddressSensitivity perturbs every determinism-relevant input
// one at a time: each must move the address, or two different
// simulations would collide in the cache and serve wrong results.
func TestCellAddressSensitivity(t *testing.T) {
	base := DefaultParams().CellAddress(addrSpec())
	seen := map[string]string{"base": base}

	perturb := func(name string, mutate func(*Params), spec runner.Spec) {
		p := DefaultParams()
		if mutate != nil {
			mutate(&p)
		}
		addr := p.CellAddress(spec)
		if addr == base {
			t.Errorf("%s: perturbation did not change the address", name)
		}
		if prev, dup := seen[addr]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[addr] = name
	}

	sp := addrSpec()
	other := sp
	other.Workload = "gcc"
	perturb("spec.Workload", nil, other)
	other = sp
	other.Predictor = "gshare"
	perturb("spec.Predictor", nil, other)
	other = sp
	other.Variant = "alt"
	perturb("spec.Variant", nil, other)
	other = sp
	other.Experiment = "table2"
	perturb("spec.Experiment", nil, other)

	perturb("MaxCommitted", func(p *Params) { p.MaxCommitted++ }, sp)
	perturb("Pipeline.FetchWidth", func(p *Params) { p.Pipeline.FetchWidth++ }, sp)
	perturb("Pipeline.ResolveDelay", func(p *Params) { p.Pipeline.ResolveDelay++ }, sp)
	perturb("Pipeline.ExtraMispredictPenalty", func(p *Params) { p.Pipeline.ExtraMispredictPenalty++ }, sp)
	perturb("Pipeline.MaxCycles", func(p *Params) { p.Pipeline.MaxCycles++ }, sp)
	perturb("Pipeline.IndirectPrediction", func(p *Params) { p.Pipeline.IndirectPrediction = !p.Pipeline.IndirectPrediction }, sp)
	perturb("Pipeline.RASDepth", func(p *Params) { p.Pipeline.RASDepth++ }, sp)
	perturb("Pipeline.ICache.SizeWords", func(p *Params) { p.Pipeline.ICache.SizeWords *= 2 }, sp)
	perturb("Pipeline.ICache.BlockWords", func(p *Params) { p.Pipeline.ICache.BlockWords *= 2 }, sp)
	perturb("Pipeline.ICache.Assoc", func(p *Params) { p.Pipeline.ICache.Assoc++ }, sp)
	perturb("Pipeline.ICache.HitLatency", func(p *Params) { p.Pipeline.ICache.HitLatency++ }, sp)
	perturb("Pipeline.ICache.MissPenalty", func(p *Params) { p.Pipeline.ICache.MissPenalty++ }, sp)
	perturb("Pipeline.DCache.SizeWords", func(p *Params) { p.Pipeline.DCache.SizeWords *= 2 }, sp)
	perturb("Pipeline.Estimators", func(p *Params) {
		p.Pipeline.Estimators = []conf.Estimator{conf.SatCounters{}}
	}, sp)
}

// TestCellAddressHashesEstimatorOrder: the estimator set is hashed by
// name in configured order — reordering changes which Confidence column
// is which, so it must move the address.
func TestCellAddressHashesEstimatorOrder(t *testing.T) {
	ab := DefaultParams()
	ab.Pipeline.Estimators = []conf.Estimator{conf.SatCounters{}, conf.NewJRS(conf.DefaultJRS)}
	ba := DefaultParams()
	ba.Pipeline.Estimators = []conf.Estimator{conf.NewJRS(conf.DefaultJRS), conf.SatCounters{}}
	if ab.CellAddress(addrSpec()) == ba.CellAddress(addrSpec()) {
		t.Error("reordering Pipeline.Estimators did not change the address")
	}
	// Fresh instances with the same Name() must address identically:
	// the hash covers configuration, not object identity.
	ab2 := DefaultParams()
	ab2.Pipeline.Estimators = []conf.Estimator{conf.SatCounters{}, conf.NewJRS(conf.DefaultJRS)}
	if ab.CellAddress(addrSpec()) != ab2.CellAddress(addrSpec()) {
		t.Error("identically-configured estimator sets address differently")
	}
}

// TestCellAddressIgnoresSideChannels: fields that cannot change a
// cell's result — observability hooks, parallelism, cache naming —
// must not move the address, or identical simulations would miss the
// cache whenever run under different harnesses.
func TestCellAddressIgnoresSideChannels(t *testing.T) {
	base := DefaultParams().CellAddress(addrSpec())
	for name, mutate := range map[string]func(*Params){
		"Jobs":        func(p *Params) { p.Jobs = 16 },
		"Progress":    func(p *Params) { p.Progress = func(string) {} },
		"ICache.Name": func(p *Params) { p.Pipeline.ICache.Name = "renamed" },
	} {
		p := DefaultParams()
		mutate(&p)
		if p.CellAddress(addrSpec()) != base {
			t.Errorf("%s changed the address but cannot change the result", name)
		}
	}
}
