package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"specctrl/internal/pipeline"
	"specctrl/internal/replay"
	"specctrl/internal/synth"
)

// ProtocolVersion is the cluster wire-protocol version; it prefixes
// every route (`/cluster/v1/...`). Coordinator and workers must agree:
// a version bump moves the whole route tree, so a stale worker gets
// 404s and fails to register rather than misparsing payloads.
const ProtocolVersion = 1

// RegisterRequest is the body of POST /cluster/v1/workers.
type RegisterRequest struct {
	// Node is the worker's self-reported name (hostname by default);
	// cosmetic — the coordinator-assigned worker id is the identity.
	Node string `json:"node"`
}

// RegisterResponse tells a freshly registered worker its identity and
// the liveness contract it must keep.
type RegisterResponse struct {
	// ID is the coordinator-assigned worker id, used in every
	// subsequent route.
	ID string `json:"id"`
	// HeartbeatMillis is how often the worker must heartbeat.
	HeartbeatMillis int64 `json:"heartbeatMillis"`
	// LeaseTTLMillis is how long the coordinator waits after the last
	// heartbeat before declaring the worker gone and requeueing its
	// units.
	LeaseTTLMillis int64 `json:"leaseTTLMillis"`
}

// Unit is one schedulable work item: shard Shard of one experiment's
// grid under the carried parameters. It is what POST .../poll returns.
type Unit struct {
	// ID is the coordinator-assigned unit id (unique per scatter).
	ID string `json:"id"`
	// Addr is the unit's content address (experiments.UnitAddress):
	// the stable identity of "this shard of this grid under these
	// parameters", independent of ID.
	Addr string `json:"addr"`
	// Experiment names the experiments-registry entry to run.
	Experiment string `json:"experiment"`
	// Shard is the runner shard in "i/n" form.
	Shard string `json:"shard"`
	// Committed is the committed-instruction budget
	// (experiments.Params.MaxCommitted).
	Committed uint64 `json:"committed"`
	// BaseSeed roots the cells' RNG streams (0 = runner default).
	BaseSeed uint64 `json:"baseSeed"`
	// Replay is the replay mode ("" / "on" / "off"); it changes
	// which cells a grid enumerates, so it is part of unit identity.
	Replay string `json:"replay"`
	// SynthN is the sweepspace generated-profile count (0 = default);
	// like Replay it changes which cells the grid enumerates.
	SynthN int `json:"synthN,omitempty"`
	// SynthWorkloads are the extra synth workload names the
	// experiment's grid appends (experiments.Params.SynthWorkloads).
	SynthWorkloads []string `json:"synthWorkloads,omitempty"`
	// Policy is the canonical spec (policy.Parse / Policy.Name form)
	// of the speculation-control policy installed on the scattering
	// coordinator's base pipeline, "" when none. Policies perturb
	// timing, so the spec is part of a unit's identity (UnitAddress
	// hashes it through pipelineIdentity) and workers must install the
	// same policy before simulating.
	Policy string `json:"policy,omitempty"`
	// SynthProfiles carry the generator vectors backing the
	// profile-backed subset of SynthWorkloads: workers re-register
	// them locally before running the unit. Trace-backed names have no
	// vector to ship; workers must have ingested the same trace files
	// (see docs/CLUSTER.md).
	SynthProfiles []synth.Profile `json:"synthProfiles,omitempty"`
	// TraceParent, when non-empty, is the W3C traceparent of the
	// coordinator's scatter span: the worker parents its unit span
	// there so cross-node spans share the job's TraceID.
	TraceParent string `json:"traceparent,omitempty"`
}

// FailRequest is the body of POST /cluster/v1/units/{id}/fail.
type FailRequest struct {
	// Error describes why the unit failed (for the coordinator log
	// and unit state).
	Error string `json:"error"`
	// Requeue asks the coordinator to reschedule the unit (a draining
	// worker sets it; a deterministic simulation error should not).
	Requeue bool `json:"requeue"`
}

// StatusWorker is one worker's row in a Status snapshot.
type StatusWorker struct {
	ID     string   `json:"id"`
	Node   string   `json:"node"`
	Queued int      `json:"queued"`
	Leased []string `json:"leased"`
	// LastSeenMillis is milliseconds since the last heartbeat.
	LastSeenMillis int64 `json:"lastSeenMillis"`
}

// Status is the GET /cluster/v1/status snapshot: live workers and unit
// counts by state. Tests and operators use it to observe scheduling.
type Status struct {
	Workers []StatusWorker `json:"workers"`
	Units   map[string]int `json:"units"`
}

// validAddr reports whether addr is a well-formed content address (a
// 64-digit lowercase hex SHA-256). Handlers reject anything else
// before touching the stores, which index by addr prefix.
func validAddr(addr string) bool {
	if len(addr) != 64 {
		return false
	}
	for i := 0; i < len(addr); i++ {
		c := addr[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// encodeTrace frames a recorded trace and its base-run stats for the
// wire: a 4-byte big-endian stats-JSON length, the stats JSON, then
// the trace's own self-validating encoding (replay.Trace.Encode).
func encodeTrace(t *replay.Trace, st *pipeline.Stats) ([]byte, error) {
	stats, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("cluster: encode trace stats: %w", err)
	}
	enc := t.Encode()
	out := make([]byte, 0, 4+len(stats)+len(enc))
	out = binary.BigEndian.AppendUint32(out, uint32(len(stats)))
	out = append(out, stats...)
	out = append(out, enc...)
	return out, nil
}

// decodeTrace parses an encodeTrace frame. The trace payload goes
// through replay.Decode, so a corrupt or truncated body is rejected
// with a typed error rather than replayed.
func decodeTrace(data []byte) (*replay.Trace, *pipeline.Stats, error) {
	if len(data) < 4 {
		return nil, nil, fmt.Errorf("cluster: trace frame truncated")
	}
	n := binary.BigEndian.Uint32(data)
	rest := data[4:]
	if uint32(len(rest)) < n {
		return nil, nil, fmt.Errorf("cluster: trace frame truncated")
	}
	st := new(pipeline.Stats)
	if err := json.Unmarshal(rest[:n], st); err != nil {
		return nil, nil, fmt.Errorf("cluster: decode trace stats: %w", err)
	}
	t, err := replay.Decode(rest[n:])
	if err != nil {
		return nil, nil, err
	}
	return t, st, nil
}
