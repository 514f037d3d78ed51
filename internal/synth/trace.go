package synth

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"

	"specctrl/internal/isa"
	"specctrl/internal/workload"
)

// SPBT branch-trace file format, version 1 (all integers varint):
//
//	"SPBT" | version byte |
//	uvarint nSites  | site PCs: first as uvarint, then uvarint deltas ≥ 1
//	                  (PCs strictly increasing — the canonical order)
//	uvarint nEvents | events: uvarint (siteIndex<<1 | takenBit), in
//	                  commit order
//
// The encoding is canonical: for a given site set and event stream
// there is exactly one byte encoding, so the content hash of the file
// doubles as the ingested workload's identity.
const (
	traceMagic   = "SPBT"
	traceVersion = 1
	// maxTraceSites bounds distinct branch sites: the replay program
	// emits a code block per site, so this caps generated code size.
	maxTraceSites = 4096
	// maxTraceEvents bounds the outcome stream: each event is one word
	// in the replay program's data image.
	maxTraceEvents = 1 << 20
)

// Typed decode errors, mirroring internal/replay's codec contract.
var (
	// ErrBadMagic means the input does not start with "SPBT".
	ErrBadMagic = errors.New("synth: not a branch-trace file (bad magic)")
	// ErrVersion means a well-formed header with an unknown version.
	ErrVersion = errors.New("synth: unsupported branch-trace version")
	// ErrCorrupt means a structural violation after a valid header.
	ErrCorrupt = errors.New("synth: corrupt branch-trace file")
)

// corruptf wraps ErrCorrupt with position context.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Trace is a decoded branch trace: the static branch sites (by original
// PC, strictly increasing) and the dynamic outcome stream over them.
type Trace struct {
	// SitePCs are the distinct branch-site addresses, ascending.
	SitePCs []int64
	// Events is the commit-order outcome stream, packed as
	// siteIndex<<1 | takenBit.
	Events []uint32
}

// Validate checks the structural invariants EncodeTrace requires.
func (t *Trace) Validate() error {
	if len(t.SitePCs) == 0 || len(t.SitePCs) > maxTraceSites {
		return corruptf("site count %d out of range [1,%d]", len(t.SitePCs), maxTraceSites)
	}
	if len(t.Events) == 0 || len(t.Events) > maxTraceEvents {
		return corruptf("event count %d out of range [1,%d]", len(t.Events), maxTraceEvents)
	}
	prev := int64(-1)
	for i, pc := range t.SitePCs {
		if pc < 0 || pc <= prev {
			return corruptf("site %d: pc %d not strictly increasing and non-negative", i, pc)
		}
		prev = pc
	}
	for i, e := range t.Events {
		if int(e>>1) >= len(t.SitePCs) {
			return corruptf("event %d: site index %d out of range", i, e>>1)
		}
	}
	return nil
}

// NewTrace builds the trace of a committed conditional-branch stream:
// pcs[i] is the i-th committed branch's address and taken[i] its
// outcome. Sites are indexed in ascending PC order, the canonical
// order. A stream that is empty or longer than the format's bound fails
// here rather than producing an unloadable file.
func NewTrace(pcs []int64, taken []bool) (*Trace, error) {
	if len(pcs) == 0 {
		return nil, errors.New("synth: no committed branch events to trace")
	}
	if len(pcs) > maxTraceEvents {
		return nil, fmt.Errorf("synth: %d committed branch events exceed the format bound %d (shorten the run)",
			len(pcs), maxTraceEvents)
	}
	uniq := map[int64]struct{}{}
	for _, pc := range pcs {
		uniq[pc] = struct{}{}
	}
	sites := make([]int64, 0, len(uniq))
	for pc := range uniq {
		sites = append(sites, pc)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	index := make(map[int64]uint32, len(sites))
	for i, pc := range sites {
		index[pc] = uint32(i)
	}
	t := &Trace{SitePCs: sites, Events: make([]uint32, len(pcs))}
	for i, pc := range pcs {
		e := index[pc] << 1
		if taken[i] {
			e |= 1
		}
		t.Events[i] = e
	}
	return t, nil
}

// EncodeTrace serializes a trace into the canonical SPBT byte form.
func EncodeTrace(t *Trace) ([]byte, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	out := make([]byte, 0, 8+len(t.SitePCs)*2+len(t.Events)*2)
	out = append(out, traceMagic...)
	out = append(out, traceVersion)
	out = binary.AppendUvarint(out, uint64(len(t.SitePCs)))
	prev := int64(0)
	for i, pc := range t.SitePCs {
		if i == 0 {
			out = binary.AppendUvarint(out, uint64(pc))
		} else {
			out = binary.AppendUvarint(out, uint64(pc-prev))
		}
		prev = pc
	}
	out = binary.AppendUvarint(out, uint64(len(t.Events)))
	for _, e := range t.Events {
		out = binary.AppendUvarint(out, uint64(e))
	}
	return out, nil
}

// traceReader tracks a decode position for error context.
type traceReader struct {
	data []byte
	off  int
}

func (r *traceReader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, corruptf("truncated or oversized varint (%s) at offset %d", what, r.off)
	}
	r.off += n
	return v, nil
}

// DecodeTrace parses SPBT bytes, enforcing every structural invariant
// before allocation is proportional to declared counts: counts are
// bounded by the remaining input size (each entry is at least one
// byte), site PCs must be strictly increasing (the canonical order),
// event site indices must be in range, and trailing bytes are rejected.
func DecodeTrace(data []byte) (*Trace, error) {
	if len(data) < len(traceMagic)+1 {
		return nil, ErrBadMagic
	}
	if string(data[:len(traceMagic)]) != traceMagic {
		return nil, ErrBadMagic
	}
	if data[len(traceMagic)] != traceVersion {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, data[len(traceMagic)], traceVersion)
	}
	r := &traceReader{data: data, off: len(traceMagic) + 1}

	nSites, err := r.uvarint("site count")
	if err != nil {
		return nil, err
	}
	if nSites == 0 || nSites > maxTraceSites {
		return nil, corruptf("site count %d out of range [1,%d]", nSites, maxTraceSites)
	}
	if nSites > uint64(len(data)-r.off) {
		return nil, corruptf("site count %d exceeds remaining input (%d bytes)", nSites, len(data)-r.off)
	}
	t := &Trace{SitePCs: make([]int64, 0, nSites)}
	pc := int64(0)
	for i := uint64(0); i < nSites; i++ {
		d, err := r.uvarint("site pc")
		if err != nil {
			return nil, err
		}
		if d > 1<<62 {
			return nil, corruptf("site %d: pc delta %d out of range", i, d)
		}
		if i == 0 {
			pc = int64(d)
		} else {
			if d == 0 {
				return nil, corruptf("site %d: zero pc delta (sites must be strictly increasing)", i)
			}
			pc += int64(d)
			if pc < 0 {
				return nil, corruptf("site %d: pc overflow", i)
			}
		}
		t.SitePCs = append(t.SitePCs, pc)
	}

	nEvents, err := r.uvarint("event count")
	if err != nil {
		return nil, err
	}
	if nEvents == 0 || nEvents > maxTraceEvents {
		return nil, corruptf("event count %d out of range [1,%d]", nEvents, maxTraceEvents)
	}
	if nEvents > uint64(len(data)-r.off) {
		return nil, corruptf("event count %d exceeds remaining input (%d bytes)", nEvents, len(data)-r.off)
	}
	t.Events = make([]uint32, 0, nEvents)
	for i := uint64(0); i < nEvents; i++ {
		e, err := r.uvarint("event")
		if err != nil {
			return nil, err
		}
		if e>>1 >= nSites {
			return nil, corruptf("event %d: site index %d out of range [0,%d)", i, e>>1, nSites)
		}
		t.Events = append(t.Events, uint32(e))
	}
	if r.off != len(data) {
		return nil, corruptf("%d trailing bytes after event stream", len(data)-r.off)
	}
	return t, nil
}

// Trace-replay program layout (word addresses).
const (
	traceTableAddr  = 0x2000 // per-site dispatch block addresses
	traceEventsAddr = 0x8000 // packed event words
)

// buildTraceProgram emits the replay program: an interpreter loop that
// walks the event words and dispatches (Jalr) into a per-site code
// block whose conditional branch takes the event's recorded outcome.
// Site identity maps to a distinct branch PC, which is what history
// predictors and estimators key on; the original PCs are metadata. The
// outer iters limit wraps the stream (workload Build semantics: large
// enough to never halt before MaxCommitted).
func buildTraceProgram(t *Trace, name string, iters int) *isa.Program {
	b := isa.NewBuilder(name)
	const (
		rEv      = isa.Reg(1)  // event stream base
		rTab     = isa.Reg(2)  // dispatch table base
		rIdx     = isa.Reg(3)  // event index
		rE       = isa.Reg(4)  // event word
		rTk      = isa.Reg(5)  // taken bit (read by the site blocks)
		rS       = isa.Reg(6)  // site index
		rA       = isa.Reg(7)  // scratch address
		rNEv     = isa.Reg(8)  // event count
		rPass    = isa.Reg(9)  // stream pass counter
		rPassLim = isa.Reg(10) // iters
	)
	for i, e := range t.Events {
		b.Word(traceEventsAddr+int64(i), int64(e))
	}
	b.Li(rEv, traceEventsAddr)
	b.Li(rTab, traceTableAddr)
	for i := range t.SitePCs {
		b.LiLabel(rA, fmt.Sprintf("t_site_%d", i))
		b.St(rA, rTab, int32(i))
	}
	b.Lui(rNEv, int32(len(t.Events)>>16)).Ori(rNEv, rNEv, int32(len(t.Events)&0xFFFF))
	b.Lui(rPassLim, int32(iters>>16)).Ori(rPassLim, rPassLim, int32(iters&0xFFFF))

	b.Label("pass")
	b.Li(rIdx, 0)
	b.Label("loop")
	b.Add(rA, rEv, rIdx)
	b.Ld(rE, rA, 0)
	b.Andi(rTk, rE, 1)
	b.Shri(rS, rE, 1)
	b.Add(rA, rTab, rS)
	b.Ld(rA, rA, 0)
	b.Jalr(isa.RA, rA, 0)
	b.Addi(rIdx, rIdx, 1)
	b.Blt(rIdx, rNEv, "loop")
	b.Addi(rPass, rPass, 1)
	b.Blt(rPass, rPassLim, "pass")
	b.Halt()

	for i := range t.SitePCs {
		b.Label(fmt.Sprintf("t_site_%d", i))
		b.Bne(rTk, isa.Zero, fmt.Sprintf("t_take_%d", i))
		b.Jalr(isa.Zero, isa.RA, 0)
		b.Label(fmt.Sprintf("t_take_%d", i))
		b.Jalr(isa.Zero, isa.RA, 0)
	}
	return b.MustBuild()
}

// FromTrace decodes an SPBT branch-trace file and registers a workload
// that replays it, returning the content-addressed name
// "synth:t-<hash>". Like Register, it is idempotent: the name hashes
// the canonical encoding, so re-ingesting the same trace re-yields the
// same workload. The replay program ignores BuildSeeded's seed (the
// recorded stream is the input; there is no alternative input to
// re-derive).
func FromTrace(data []byte) (string, error) {
	t, err := DecodeTrace(data)
	if err != nil {
		return "", err
	}
	canonical, err := EncodeTrace(t)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canonical)
	name := workload.SynthPrefix + "t-" + hex.EncodeToString(sum[:])[:12]
	w := workload.Workload{
		Name: name,
		Description: fmt.Sprintf("ingested trace: %d sites, %d events, %.1f%% taken",
			len(t.SitePCs), len(t.Events), takenPct(t)),
		Build: func(iters int) *isa.Program { return buildTraceProgram(t, name, iters) },
		BuildSeeded: func(_ uint64, iters int) *isa.Program {
			return buildTraceProgram(t, name, iters)
		},
	}
	if err := workload.Register(w); err != nil {
		var dup *workload.DuplicateError
		if !errors.As(err, &dup) {
			return "", err
		}
	}
	return name, nil
}

// takenPct is the trace's taken percentage (for registry descriptions).
func takenPct(t *Trace) float64 {
	taken := 0
	for _, e := range t.Events {
		taken += int(e & 1)
	}
	return 100 * float64(taken) / float64(len(t.Events))
}
