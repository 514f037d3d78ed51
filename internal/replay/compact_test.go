package replay

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"specctrl/internal/bpred"
	"specctrl/internal/conf"
	"specctrl/internal/isa"
	"specctrl/internal/obs"
	"specctrl/internal/pipeline"
	"specctrl/internal/rng"
)

// glitchGshare is a 12-bit gshare whose Info reports a history with one
// bit flipped on its glitch-th prediction: a history no rule rebuilds,
// in an otherwise rule-abiding stream.
type glitchGshare struct {
	*bpred.Gshare
	n, glitch int
}

func (g *glitchGshare) Predict(pc int64) (bool, bpred.Checkpoint, bpred.Info) {
	pred, ckpt, info := g.Gshare.Predict(pc)
	if g.n++; g.n == g.glitch {
		info.Hist ^= 1 << 3
	}
	return pred, ckpt, info
}

// manySites is a loop over sites data-dependent conditional branches,
// placed past pc 1<<16 behind a jump over padding: more distinct pcs
// than a chunk's dictionary holds, each needing a high half.
func manySites(sites int) *isa.Program {
	b := isa.NewBuilder("many-sites")
	g := rng.New(7)
	for i := int64(0); i < 256; i++ {
		b.Word(1000+i, int64(g.Intn(2)))
	}
	b.Li(1, 0).Li(4, 1000).Jump("body")
	for b.PC() < 1<<16+8 {
		b.Nop()
	}
	b.Label("body")
	for s := range sites {
		skip := fmt.Sprintf("skip%d", s)
		b.Addi(5, 1, int32(s)).Andi(5, 5, 255).Add(5, 4, 5).Ld(6, 5, 0)
		b.Beq(6, isa.Zero, skip).Addi(3, 3, 1).Label(skip)
	}
	b.Addi(1, 1, 1).Jump("body")
	return b.MustBuild()
}

// recordAndCompare records prog on a fresh predictor from newPred for
// committed branches, and checks what every compact form must keep:
// replaying the recording reproduces a direct simulation's
// Stats.Confidence bit for bit, Committed hands over the run's own
// committed fetches, and Decode(Encode(t)) deep-equals t.
func recordAndCompare(t *testing.T, prog *isa.Program, newPred func() bpred.Predictor, committed uint64) *Trace {
	t.Helper()
	run := func(ests ...conf.Estimator) *pipeline.Stats {
		cfg := testConfig()
		cfg.MaxCommitted = committed
		cfg.Estimators = ests
		for _, e := range ests {
			if tr, ok := e.(obs.Tracer); ok {
				cfg.Tracer = obs.MultiSink(cfg.Tracer, tr)
			}
		}
		st, err := pipeline.MustNew(cfg, prog, newPred()).Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	rec, probe := NewRecorder(), &committedProbe{}
	run(rec, probe)
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	direct := run(kernelBatch().build()...)
	if got := Replay(tr, kernelBatch().build()); !reflect.DeepEqual(got, direct.Confidence) {
		t.Error("replayed Confidence differs from direct simulation")
	}
	var got []committedFetch
	tr.Committed(func(pc int64, info bpred.Info, correct bool) {
		got = append(got, committedFetch{pc, info, correct})
	})
	if !reflect.DeepEqual(got, probe.fetches) {
		t.Error("Committed differs from the run's committed fetches")
	}
	dec, err := Decode(tr.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, tr) {
		t.Error("Decode(Encode(t)) differs from t")
	}
	return tr
}

// TestCompactFallbacks: each column the compact form can drop is kept
// explicit in exactly the chunks that need it, and every such trace
// replays, hands over its committed fetches and round-trips exactly.
func TestCompactFallbacks(t *testing.T) {
	t.Run("rule broken mid-chunk", func(t *testing.T) {
		// The glitch falls in the first chunk's middle: that chunk keeps
		// its histories, and the next chunk's rule state, carried as
		// recorded, rebuilds its histories again.
		tr := recordAndCompare(t, testProg(), func() bpred.Predictor {
			return &glitchGshare{Gshare: bpred.NewGshare(12), glitch: 20_000}
		}, 150_000)
		if len(tr.chunks) < 2 {
			t.Fatalf("%d chunks, want at least 2", len(tr.chunks))
		}
		for i := range tr.chunks {
			want := uint8(histGlobal)
			if i == 0 {
				want = histExplicit
			}
			if got := tr.chunks[i].hist.rule; got != want {
				t.Errorf("chunk %d: history rule %d, want %d", i, got, want)
			}
		}
	})
	t.Run("257 pcs", func(t *testing.T) {
		tr := recordAndCompare(t, manySites(300), func() bpred.Predictor { return bpred.NewGshare(12) }, 60_000)
		for i := range tr.chunks {
			if c := &tr.chunks[i]; c.pc.dict != nil || c.pc.wide.hi == nil || c.hist.rule != histGlobal {
				t.Errorf("chunk %d: pc dictionary %v, pc high half %v, history rule %d; want explicit wide pcs, global rule",
					i, c.pc.dict != nil, c.pc.wide.hi != nil, c.hist.rule)
			}
		}
	})
	t.Run("mcfarling counters", func(t *testing.T) {
		tr := recordAndCompare(t, testProg(), func() bpred.Predictor { return bpred.NewMcFarling(12) }, 60_000)
		for i := range tr.chunks {
			if c := &tr.chunks[i]; c.ctr == nil || c.hist.rule != histGlobal {
				t.Errorf("chunk %d: counter column %v, history rule %d; want a counter column, global rule",
					i, c.ctr != nil, c.hist.rule)
			}
		}
	})
	t.Run("wide histories", func(t *testing.T) {
		// A 20-bit gshare's histories need high halves, which its rule
		// rebuilds (wideRecording covers ones no rule rebuilds).
		tr := recordAndCompare(t, testProg(), func() bpred.Predictor { return bpred.NewGshare(20) }, 60_000)
		for i := range tr.chunks {
			if c := &tr.chunks[i]; c.hist.rule != histGlobal || c.hist.mask>>16 == 0 {
				t.Errorf("chunk %d: history rule %d, mask %#x; want the global rule over 20 bits", i, c.hist.rule, c.hist.mask)
			}
		}
	})
}

// ruleStream records a synthetic stream whose histories follow the
// global rule (global) or the local rule, over sites pcs from base
// upward, histories masked to width bits, with random C1 and, with
// counters, random C2 and Meta; at fetch breakAt (if any) the recorded
// history breaks the rule. Committed fetches resolve in order, up to 8 in
// flight, and a mispredicted one squashes the in-flight younger ones
// as the pipeline does.
func ruleStream(seed int64, fetches, sites int, base int64, width uint, global bool, breakAt int, counters bool) *Trace {
	rng := rand.New(rand.NewSource(seed))
	mask := uint64(1)<<width - 1
	var h uint64
	local := map[int64]uint64{}
	type inflight struct {
		pc   int64
		hist uint64
		pred bool
		ok   bool
	}
	var q []inflight
	r := NewRecorder()
	wrong := 0 // wrong-path fetches left before the squash
	for f := range fetches {
		pc := base + 4*int64(rng.Intn(sites))
		hist := h
		if !global {
			hist = local[pc]
		}
		if f == breakAt {
			hist ^= 1
		}
		pred, ok := rng.Intn(2) == 0, rng.Intn(8) != 0
		info := bpred.Info{Pred: pred, Hist: hist, C1: bpred.Counter2(rng.Intn(4))}
		if counters {
			info.C2, info.Meta = bpred.Counter2(rng.Intn(4)), bpred.Counter2(rng.Intn(4))
		}
		r.Estimate(pc, info)
		r.Branch(obs.BranchEvent{PC: pc, Pred: pred, Outcome: pred == ok, WrongPath: wrong > 0})
		if global {
			h = (hist<<1 | b2u(pred)) & mask
		}
		if wrong > 0 {
			wrong--
		} else {
			q = append(q, inflight{pc, hist, pred, ok})
			if !ok {
				wrong = rng.Intn(4)
			}
		}
		for len(q) > 0 && (len(q) > 8 || wrong == 0 && rng.Intn(3) == 0) {
			p := q[0]
			q = q[1:]
			r.Resolve(p.pc, bpred.Info{}, p.ok)
			outcome := b2u(p.pred == p.ok)
			if global && !p.ok {
				h = (p.hist<<1 | outcome) & mask
			}
			if !global {
				local[p.pc] = (local[p.pc]<<1 | outcome) & mask
			}
			if !p.ok {
				wrong = 0
				break
			}
		}
	}
	for _, p := range q {
		r.Resolve(p.pc, bpred.Info{}, p.ok)
	}
	tr, err := r.Trace()
	if err != nil {
		panic(err)
	}
	return tr
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// ruleStreams are small synthetic traces of each compact shape, for
// FuzzDecode's seed corpus and TestRuleStreams.
func ruleStreams() map[string]*Trace {
	const n = 50_000 // about 70k tokens: two chunks
	return map[string]*Trace{
		"global":            ruleStream(1, n, 16, 4096, 12, true, -1, false),
		"local":             ruleStream(2, n, 16, 4096, 13, false, -1, false),
		"global broken":     ruleStream(3, n, 16, 4096, 12, true, n/4, false),
		"local broken":      ruleStream(4, n, 16, 4096, 13, false, n/4, false),
		"counters":          ruleStream(5, n, 16, 4096, 12, true, -1, true),
		"257 wide pcs":      ruleStream(6, n, 300, 1<<20, 12, true, -1, false),
		"wide history rule": ruleStream(7, n, 16, 4096, 24, true, -1, false),
		"wide history":      ruleStream(8, n, 16, 4096, 24, false, n/4, false),
	}
}

// TestRuleStreams: on synthetic streams of every compact shape, the
// builder takes the rule the stream follows, keeps explicit only the
// chunk a broken history lies in, and the kernel matches the oracle;
// Decode(Encode(t)) deep-equals t.
func TestRuleStreams(t *testing.T) {
	for name, tr := range ruleStreams() {
		t.Run(name, func(t *testing.T) {
			if len(tr.chunks) < 2 {
				t.Fatalf("%d chunks, want at least 2", len(tr.chunks))
			}
			for i := range tr.chunks {
				c := &tr.chunks[i]
				want := uint8(histGlobal)
				if name == "local" || name == "local broken" || name == "wide history" {
					want = histLocal
				}
				if i == 0 && (name == "global broken" || name == "local broken" || name == "wide history") {
					want = histExplicit
				}
				if c.hist.rule != want {
					t.Errorf("chunk %d: history rule %d, want %d", i, c.hist.rule, want)
				}
				if (c.ctr != nil) != (name == "counters") {
					t.Errorf("chunk %d: counter column %v", i, c.ctr != nil)
				}
				if (c.pc.dict == nil) != (name == "257 wide pcs") {
					t.Errorf("chunk %d: pc dictionary %v", i, c.pc.dict != nil)
				}
			}
			assertKernelMatchesOracle(t, tr, kernelBatch())
			dec, err := Decode(tr.Encode())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dec, tr) {
				t.Error("Decode(Encode(t)) differs from t")
			}
		})
	}
}
