package conf_test

import (
	"testing"

	"specctrl/internal/bpred"
	"specctrl/internal/conf"
	"specctrl/internal/isa"
	"specctrl/internal/obs"
	"specctrl/internal/pipeline"
	"specctrl/internal/rng"
)

// mixProgram builds a small trace with both predictable and
// data-dependent branches, so member estimators genuinely disagree.
func mixProgram(iters int) *isa.Program {
	b := isa.NewBuilder("combmix")
	g := rng.New(7)
	for i := int64(0); i < 128; i++ {
		b.Word(1000+i, int64(g.Intn(2)))
	}
	b.Li(1, 0).Li(2, int32(iters)).Li(3, 0).Li(4, 1000)
	b.Label("loop")
	b.Andi(5, 1, 127)
	b.Add(5, 4, 5)
	b.Ld(6, 5, 0)
	b.Beq(6, isa.Zero, "skip")
	b.Addi(3, 3, 1)
	b.Label("skip")
	b.Addi(1, 1, 1)
	b.Blt(1, 2, "loop")
	b.Halt()
	return b.MustBuild()
}

// TestCombinerMatchesOracleOnTrace is the differential gate for the
// combiner layer: run a real simulation with the member estimators and
// three combiners over the same members attached side by side, then
// check — branch by branch, from the recorded per-branch confidence
// mask — that every combiner's bit equals the hand-computed rule over
// its members' own bits. Each combiner owns private member instances
// with identical configurations; since every estimator attached to a
// run observes the same estimate/resolve stream, the private copies
// stay in lockstep with the standalone members.
func TestCombinerMatchesOracleOnTrace(t *testing.T) {
	newMembers := func() []conf.Estimator {
		return []conf.Estimator{
			conf.NewJRS(conf.DefaultJRS),
			conf.SatCounters{},
			conf.NewDistance(3),
		}
	}
	cfg := pipeline.DefaultConfig()
	cfg.MaxCommitted = 20_000
	cfg.MaxCycles = 10_000_000
	var events []obs.BranchEvent
	cfg.Tracer = eventCollector(func(e obs.BranchEvent) { events = append(events, e) })
	cfg.Estimators = append(newMembers(),
		&conf.Combiner{Rule: conf.CombineMin, Members: newMembers()},
		&conf.Combiner{Rule: conf.CombineWeightedVote, Members: newMembers()},
		&conf.Combiner{Rule: conf.CombineNoisyOR, Members: newMembers()},
	)
	if _, err := pipeline.MustNew(cfg, mixProgram(1<<30), bpred.NewGshare(12)).Run(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no branch events recorded; the differential is vacuous")
	}
	var highs [3]int
	for n, ev := range events {
		j := ev.ConfMask&(1<<0) != 0 // JRS
		s := ev.ConfMask&(1<<1) != 0 // SatCnt
		d := ev.ConfMask&(1<<2) != 0 // Dist(>3)
		votes := 0
		for _, v := range []bool{j, s, d} {
			if v {
				votes++
			}
		}
		// Hand-computed oracles: min is unanimity; a 3-member default
		// vote (weight 1 each, threshold 1.5) needs 2 votes; a default
		// noisy-OR (reliability 0.5, threshold 0.5) needs any vote.
		oracle := [3]bool{
			j && s && d,
			votes >= 2,
			votes >= 1,
		}
		for i, want := range oracle {
			got := ev.ConfMask&(1<<(3+uint(i))) != 0
			if got != want {
				t.Fatalf("event %d (pc=%d): combiner %d bit %v, oracle %v (members j=%v s=%v d=%v)",
					n, ev.PC, i, got, want, j, s, d)
			}
			if got {
				highs[i]++
			}
		}
	}
	// Guard against a vacuous pass: every combiner must have said both
	// high and low at least once over the trace.
	for i, h := range highs {
		if h == 0 || h == len(events) {
			t.Errorf("combiner %d was constant over %d events (%d high); trace too degenerate",
				i, len(events), h)
		}
	}
}

// eventCollector is an obs.Tracer that hands each event to a func.
type eventCollector func(obs.BranchEvent)

func (f eventCollector) Branch(e obs.BranchEvent) { f(e) }
func (f eventCollector) Close() error             { return nil }
