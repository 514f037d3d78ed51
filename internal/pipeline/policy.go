package pipeline

// FetchSignal is the live confidence state a speculation-control policy
// decides from, snapshotted at the top of each Tick — before that
// cycle's branch resolutions, so a policy sees exactly what an external
// per-cycle driver polling PendingLowConf before Tick would have seen.
// Populating it is O(1): the pending ring keeps its counts as entries
// come and go.
type FetchSignal struct {
	// Cycle is the cycle about to execute (1-based).
	Cycle uint64
	// PendingLowConf is the number of in-flight conditional branches
	// whose first-estimator confidence estimate was low — the paper's
	// gating occupancy count. Always 0 when Config.Estimators is empty.
	PendingLowConf int
	// PendingBranches is the total number of in-flight conditional
	// branches.
	PendingBranches int
	// FetchWidth is Config.FetchWidth, the machine's maximum fetch rate.
	FetchWidth int
}

// Policy decides the front end's per-cycle fetch action from live
// confidence state: full rate, a throttled rate, or a full gate. A
// policy is installed through Config.Policy and consulted once per Tick
// whose external fetchAllowed is true; nil (no policy) is the zero-cost
// always-full-rate fast path.
//
// Width returns the number of instructions the front end may fetch this
// cycle. Zero (or negative) gates the cycle entirely — accounted
// exactly like an external scheduler's fetchAllowed=false
// (Stats.GatedCycles, BucketGated); values above sig.FetchWidth clamp
// to it (the pending ring is sized for FetchWidth, so a policy cannot
// over-fetch). Partial widths model variable instruction fetch rate:
// the fetch group stops after that many slots.
//
// Name returns the policy's canonical spec string (e.g. "gate:2"); it
// is hashed into experiments cell addresses, so two policies with
// different behaviour must never share a name.
//
// A stateful policy additionally implements Fresh() Policy to hand each
// simulation a private instance, and may implement Validate() error to
// participate in Config.Validate.
type Policy interface {
	Name() string
	Width(sig FetchSignal) int
}

// policyFor returns the per-Sim policy instance for cfg: the installed
// policy itself, or a fresh private copy when it carries run state.
func policyFor(cfg Config) Policy {
	if cfg.Policy == nil {
		return nil
	}
	if f, ok := cfg.Policy.(interface{ Fresh() Policy }); ok {
		return f.Fresh()
	}
	return cfg.Policy
}
