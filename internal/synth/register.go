package synth

import (
	"errors"
	"fmt"
	"sync"

	"specctrl/internal/isa"
	"specctrl/internal/workload"
)

// profiles is the name → Profile side table behind ProfileFor: the
// sweepspace experiment reads it to label generated workloads with
// their characterization vectors.
var (
	profilesMu sync.Mutex
	profiles   = map[string]Profile{}
)

// Register validates the profile, probes generator feasibility (a
// 1-iteration build), and publishes the generated workload through
// internal/workload under its content-addressed name. Registering the
// same profile twice is idempotent — the name is a hash of the vector,
// so a duplicate-name collision can only be the same generator output —
// which lets CLI flags and job submissions both register freely.
func Register(p Profile) (string, error) {
	if err := p.Validate(); err != nil {
		return "", err
	}
	if _, err := Build(p, 1); err != nil {
		return "", err
	}
	name := p.WorkloadName()
	w := workload.Workload{
		Name: name,
		Description: fmt.Sprintf("generated: %d sites, density %.2f, taken %.2f±%.2f, h2p %.2f, global %.2f@%d, local %.2f@%d",
			p.Sites, p.Density, p.Taken, p.Spread, p.H2P, p.GlobalFrac, p.GlobalDepth, p.LocalFrac, p.LocalPeriod),
		Build: func(iters int) *isa.Program { return MustBuild(p, iters) },
		BuildSeeded: func(seed uint64, iters int) *isa.Program {
			q := p
			q.Seed = seed
			return MustBuild(q, iters)
		},
	}
	if err := workload.Register(w); err != nil {
		var dup *workload.DuplicateError
		if !errors.As(err, &dup) {
			return "", err
		}
	}
	profilesMu.Lock()
	profiles[name] = p
	profilesMu.Unlock()
	return name, nil
}

// ProfileFor returns the profile registered under a synth workload
// name, if any (ingested-trace workloads have none).
func ProfileFor(name string) (Profile, bool) {
	profilesMu.Lock()
	defer profilesMu.Unlock()
	p, ok := profiles[name]
	return p, ok
}
