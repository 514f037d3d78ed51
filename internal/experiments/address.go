package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"specctrl/internal/cache"
	"specctrl/internal/conf"
	"specctrl/internal/pipeline"
	"specctrl/internal/runner"
)

// cellAddressVersion versions the identity layout below. Bump it
// whenever a field is added to (or removed from) the canonical
// identity, so addresses from older layouts can never alias.
//
// v2: pipelineIdentity gained Estimators (the Name() of every
// estimator carried in pipeline.Config.Estimators).
//
// v3: pipelineIdentity gained Policy (the Name() of the speculation-
// control policy installed in pipeline.Config.Policy, "" when none).
//
// v4: table2, table2-detail, table3, auc, patterns and misest were
// redefined as trace-driven evaluations over the committed branch
// stream (a since-removed trace tier): their cell results changed, so
// v3 addresses must never serve them — or any other cell, since the
// version is shared — to a v4 build.
//
// v5: those six experiments went back to wrong-path-aware pipeline
// evaluation (direct simulation or event-trace replay): their cell
// results changed again under unchanged identities, so a v4 store must
// never serve its trace-driven cells to a v5 build.
//
// v6: the base seed left the identity; no cell ever read a seed.
//
// v7: the fixed geometry, build length, static threshold and BTB size left it.
const cellAddressVersion = 7

// cacheIdentity is the determinism-relevant subset of cache.Config
// (Name is cosmetic and excluded).
type cacheIdentity struct {
	SizeWords   int `json:"sizeWords"`
	BlockWords  int `json:"blockWords"`
	Assoc       int `json:"assoc"`
	HitLatency  int `json:"hitLatency"`
	MissPenalty int `json:"missPenalty"`
}

func cacheID(c cache.Config) cacheIdentity {
	return cacheIdentity{
		SizeWords:   c.SizeWords,
		BlockWords:  c.BlockWords,
		Assoc:       c.Assoc,
		HitLatency:  c.HitLatency,
		MissPenalty: c.MissPenalty,
	}
}

// pipelineIdentity is the determinism-relevant subset of
// pipeline.Config: every field that changes a simulation's outcome, and
// none of the observability hooks (Tracer/Metrics/Progress), which are
// side channels by contract.
type pipelineIdentity struct {
	FetchWidth             int           `json:"fetchWidth"`
	ResolveDelay           int           `json:"resolveDelay"`
	ExtraMispredictPenalty int           `json:"extraMispredictPenalty"`
	ICache                 cacheIdentity `json:"icache"`
	DCache                 cacheIdentity `json:"dcache"`
	MaxCycles              uint64        `json:"maxCycles"`
	IndirectPrediction     bool          `json:"indirectPrediction"`
	RASDepth               int           `json:"rasDepth"`

	// Estimators lists the Name() of every estimator configured on the
	// base pipeline config, in order. Cell functions add their own
	// spec-derived estimators on top; those are already identified by
	// Key, so only the config-level set needs hashing here.
	Estimators []string `json:"estimators"`

	// Policy is the Name() of the speculation-control policy installed
	// on the base pipeline config, or "" when fetch runs unpolicied.
	// Policies perturb timing, so two configs differing only here must
	// never share a cell (or trace) address.
	Policy string `json:"policy"`
}

// policyName is the policy's hashable identity: its Name(), or "" when
// no policy is installed.
func policyName(p pipeline.Policy) string {
	if p == nil {
		return ""
	}
	return p.Name()
}

// estimatorNames flattens an estimator set to its report names for
// hashing. Returns a non-nil slice so the JSON encoding is stable
// ([] rather than null) whether or not estimators are configured.
func estimatorNames(ests []conf.Estimator) []string {
	names := make([]string, len(ests))
	for i, e := range ests {
		names[i] = e.Name()
	}
	return names
}

// pipelineID captures the determinism-relevant subset of the base
// pipeline configuration for hashing (shared by CellAddress and
// TraceAddress).
func (p Params) pipelineID() pipelineIdentity {
	return pipelineIdentity{
		FetchWidth:             p.Pipeline.FetchWidth,
		ResolveDelay:           p.Pipeline.ResolveDelay,
		ExtraMispredictPenalty: p.Pipeline.ExtraMispredictPenalty,
		ICache:                 cacheID(p.Pipeline.ICache),
		DCache:                 cacheID(p.Pipeline.DCache),
		MaxCycles:              p.Pipeline.MaxCycles,
		IndirectPrediction:     p.Pipeline.IndirectPrediction,
		RASDepth:               p.Pipeline.RASDepth,
		Estimators:             estimatorNames(p.Pipeline.Estimators),
		Policy:                 policyName(p.Pipeline.Policy),
	}
}

// cellIdentity is the canonical identity of one grid cell: everything a
// cell's result is a function of, and nothing else. It is hashed — not
// stored — so field names only matter for canonical-encoding stability.
type cellIdentity struct {
	AddressVersion int    `json:"addressVersion"`
	CellsVersion   int    `json:"cellsVersion"`
	Key            string `json:"key"` // experiment/workload/predictor/variant

	MaxCommitted uint64           `json:"maxCommitted"`
	Pipeline     pipelineIdentity `json:"pipeline"`
}

// CellAddress returns the content address of one grid cell under these
// parameters: a hex SHA-256 of the canonical JSON encoding of the
// cell's full identity — spec key, committed-instruction budget and
// pipeline configuration.
// Two (Params, Spec) pairs share an address exactly when the cell
// contract guarantees them byte-identical results, so the address is
// safe to use as a forever cache key across processes and machines.
//
// The address deliberately does not include the code version: like
// results_full.txt, cached cells are invalidated by clearing the store
// when simulator behaviour changes (see docs/SERVING.md).
func (p Params) CellAddress(sp runner.Spec) string {
	id := cellIdentity{
		AddressVersion: cellAddressVersion,
		CellsVersion:   CellsVersion,
		Key:            sp.Key(),
		MaxCommitted:   p.MaxCommitted,
		Pipeline:       p.pipelineID(),
	}
	data, err := json.Marshal(id)
	if err != nil {
		// cellIdentity is all scalars; Marshal cannot fail.
		panic("experiments: cell identity encoding: " + err.Error())
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// traceAddressVersion versions traceIdentity the way cellAddressVersion
// versions cellIdentity.
//
// v2: pipelineIdentity gained Policy.
//
// v3: the base seed left the identity; no recording ever read one.
//
// v4: the fixed predictor geometry, build length and BTB size left it.
const traceAddressVersion = 4

// traceIdentity is the canonical identity of one recorded branch-event
// trace: everything the estimator-visible event stream is a function
// of, and nothing else. Compared to cellIdentity it drops the spec key
// (experiment and variant select estimators, which cannot influence the
// stream) — that is exactly why one trace serves every estimator
// configuration of a (workload, predictor) pair across all experiments.
type traceIdentity struct {
	AddressVersion int    `json:"addressVersion"`
	Workload       string `json:"workload"`
	Predictor      string `json:"predictor"`

	MaxCommitted uint64           `json:"maxCommitted"`
	Pipeline     pipelineIdentity `json:"pipeline"`
}

// TraceAddress returns the content address of the branch-event trace a
// (workload, predictor) simulation under these parameters would record:
// a hex SHA-256 of the canonical JSON encoding of the trace's identity.
// Two (Params, workload, predictor) triples share an address exactly
// when their simulations produce bit-identical estimator-visible event
// streams, so the address keys the replay trace cache the same way
// CellAddress keys the result cache.
func (p Params) TraceAddress(workload string, spec PredictorSpec) string {
	id := traceIdentity{
		AddressVersion: traceAddressVersion,
		Workload:       workload,
		Predictor:      spec.Name,
		MaxCommitted:   p.MaxCommitted,
		Pipeline:       p.pipelineID(),
	}
	data, err := json.Marshal(id)
	if err != nil {
		panic("experiments: trace identity encoding: " + err.Error())
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
