package replay

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"specctrl/internal/bpred"
	"specctrl/internal/conf"
	"specctrl/internal/obs"
	"specctrl/internal/pipeline"
)

// oracleRec is one committed fetch event awaiting its resolve token.
type oracleRec struct {
	pc      int64
	info    bpred.Info
	correct bool
}

// replayOracle is the event-major evaluator the chunk kernel replaced:
// it walks the trace token by token and drives every estimator through
// the Estimator interface exactly as the simulator does — Estimate plus
// the fetch-time bookkeeping per fetch event, Resolve per resolve token
// from a FIFO of committed fetches. It shares no state between
// estimators (no threshold groups) and folds the statistics per event,
// so it is the reference the kernel must match bit for bit.
func replayOracle(t *Trace, ests []conf.Estimator) []pipeline.ConfStats {
	confs := make([]pipeline.ConfStats, len(ests))
	dist := make([]int, len(ests))
	for i, e := range ests {
		confs[i].Name = e.Name()
	}
	var fifo []oracleRec
	var r rebuild
	for ci := range t.chunks {
		c := &t.chunks[ci]
		pcs, hists := make([]int32, len(c.flg)), make([]uint32, len(c.flg))
		c.rows(&r, pcs, hists)
		fi := 0
		for k := 0; k < c.n; k++ {
			if !c.isFetch(k) {
				if len(fifo) == 0 {
					continue
				}
				rr := fifo[0]
				fifo = fifo[1:]
				for _, e := range ests {
					e.Resolve(rr.pc, rr.info, rr.correct)
				}
				continue
			}
			pc, flg := int64(pcs[fi]), c.flg[fi]
			ctr := c.ctrAt(fi)
			info := bpred.Info{
				Pred: flg&fPred != 0,
				Hist: uint64(hists[fi]),
				C1:   bpred.Counter2(ctr & 3),
				C2:   bpred.Counter2(ctr >> 2 & 3),
				Meta: bpred.Counter2(ctr >> 4 & 3),
				P1:   flg&fP1 != 0,
				P2:   flg&fP2 != 0,
			}
			fi++
			correct, committed := flg&fCorrect != 0, flg&fCommitted != 0
			for i, e := range ests {
				hc := e.Estimate(pc, info)
				cs := &confs[i]
				cs.AllQ.Record(correct, hc)
				if committed {
					cs.CommittedQ.Record(correct, hc)
					dist[i]++
					if hc != correct {
						cs.MisestCommitted.Record(dist[i], true)
						dist[i] = 0
					} else {
						cs.MisestCommitted.Record(dist[i], false)
					}
				}
			}
			if committed {
				fifo = append(fifo, oracleRec{pc: pc, info: info, correct: correct})
			}
		}
	}
	return confs
}

// streamShape parameterizes a synthetic fetch/resolve stream.
type streamShape struct {
	branches int     // committed branches
	sites    int     // distinct branch pcs
	depth    int     // committed fetches in flight before resolves drain
	misp     float64 // misprediction probability in noisy phases
	wrong    float64 // probability of a wrong-path fetch before each committed one
	calm     int     // every other phase of this many branches never mispredicts (0: none)
}

// synthStream records a random stream of the given shape through the
// recorder, the way the pipeline drives it: fetches (committed or
// wrong-path) with random predictor state, and in-order resolves of the
// committed ones, up to depth outstanding.
func synthStream(rng *rand.Rand, s streamShape) *Trace {
	r := NewRecorder()
	inflight := 0
	for b := 0; b < s.branches; b++ {
		for rng.Float64() < s.wrong {
			synthEvent(r, rng, s, false, rng.Intn(2) == 0)
		}
		calm := s.calm > 0 && b/s.calm%2 == 1
		synthEvent(r, rng, s, true, calm || rng.Float64() >= s.misp)
		inflight++
		if inflight >= s.depth || rng.Intn(3) == 0 {
			for n := rng.Intn(inflight) + 1; n > 0; n-- {
				r.Resolve(0, bpred.Info{}, false)
				inflight--
			}
		}
	}
	for ; inflight > 0; inflight-- {
		r.Resolve(0, bpred.Info{}, false)
	}
	tr, err := r.Trace()
	if err != nil {
		panic(err)
	}
	return tr
}

// synthEvent records one fetch event with a predictor state skewed the
// way real runs skew it: counters mostly saturated in the predicted
// direction and components mostly agreeing, every value still
// reachable.
func synthEvent(r *Recorder, rng *rand.Rand, s streamShape, committed, correct bool) {
	pc := int64(4096 + 4*rng.Intn(s.sites))
	pred := pc>>2&1 == 0 != (rng.Intn(8) == 0)
	counter := func() bpred.Counter2 {
		if rng.Intn(8) == 0 {
			return bpred.Counter2(rng.Intn(4))
		}
		if pred {
			return 3
		}
		return 0
	}
	info := bpred.Info{
		Pred: pred,
		Hist: uint64(rng.Intn(1 << 14)),
		C1:   counter(),
		C2:   counter(),
		Meta: counter(),
		P1:   pred != (rng.Intn(10) == 0),
		P2:   pred != (rng.Intn(6) == 0),
	}
	r.Estimate(pc, info)
	outcome := pred
	if !correct {
		outcome = !outcome
	}
	r.Branch(obs.BranchEvent{PC: pc, Pred: pred, Outcome: outcome, WrongPath: !committed})
}

// kernelBatch returns every estimator family: JRS, CIR and gMDC-CIR
// sweeps over their whole threshold range (0 through 1<<Bits or Bits),
// a Distance sweep (high confidence from Threshold+1) with bounds past
// the split table's end, a 16-member JRS sweep of another
// configuration, one-member groups, the fetch-only families, a
// profile-based Static whose profile holds pcs outside the trace and
// explicit false entries, the JRS/McFarling hybrid, and estimators only
// interface dispatch reaches.
func kernelBatch() estBatch {
	b := estBatch{
		func() conf.Estimator { return conf.SatCounters{} },
		func() conf.Estimator { return conf.SatCountersMcFarling{Variant: conf.BothStrong} },
		func() conf.Estimator { return conf.SatCountersMcFarling{Variant: conf.EitherStrong} },
		func() conf.Estimator { return conf.NewPatternHistory(6) },
		func() conf.Estimator {
			hc := map[int64]bool{4096: true, 4100: false, 4108: true, 4096 + 4*40: true, -8: true, 1 << 40: true}
			return conf.Static{HighConfidence: hc, Threshold: 0.9}
		},
		func() conf.Estimator {
			return conf.NewJRSMcFarling(conf.JRSConfig{Entries: 64, Bits: 3, Threshold: 5}, conf.BothTables)
		},
		func() conf.Estimator {
			return conf.NewJRSMcFarling(conf.JRSConfig{Entries: 64, Bits: 3, Threshold: 0, Enhanced: true}, conf.MetaSelected)
		},
		func() conf.Estimator { return conf.Always{High: true} },
		func() conf.Estimator {
			return conf.And{A: conf.NewJRS(conf.JRSConfig{Entries: 32, Bits: 2, Threshold: 3}), B: conf.NewDistance(2)}
		},
		// One-member groups.
		func() conf.Estimator {
			return conf.NewJRS(conf.JRSConfig{Entries: 256, Bits: 4, Threshold: 16, Enhanced: true})
		},
		func() conf.Estimator {
			return conf.NewOnesCount(conf.OnesCountConfig{Entries: 256, Bits: 16, Threshold: 16})
		},
		func() conf.Estimator {
			return conf.NewGlobalMDCIndexed(conf.OnesCountConfig{Entries: 8, Bits: 4, Threshold: 0})
		},
	}
	for t := 0; t <= 16; t++ {
		b = append(b, func() conf.Estimator {
			return conf.NewJRS(conf.JRSConfig{Entries: 64, Bits: 4, Threshold: t})
		})
	}
	for t := 1; t <= 16; t++ {
		b = append(b, func() conf.Estimator {
			return conf.NewJRS(conf.JRSConfig{Entries: 128, Bits: 5, Threshold: 2 * t, Enhanced: true})
		})
		b = append(b, func() conf.Estimator { return conf.NewDistance(t - 1) })
	}
	// Bounds past the group's level → split table, up to one whose
	// successor overflows.
	for _, t := range []int{splitCap - 1, splitCap, 1500, math.MaxInt} {
		b = append(b, func() conf.Estimator { return conf.NewDistance(t) })
	}
	for t := 0; t <= 8; t++ {
		b = append(b, func() conf.Estimator {
			return conf.NewOnesCount(conf.OnesCountConfig{Entries: 64, Bits: 8, Threshold: t, Enhanced: true})
		})
		b = append(b, func() conf.Estimator {
			return conf.NewGlobalMDCIndexed(conf.OnesCountConfig{Entries: 16, Bits: 8, Threshold: t})
		})
	}
	return b
}

// assertKernelMatchesOracle replays tr through the kernel and the
// oracle, each with fresh estimators, and fails on any difference.
func assertKernelMatchesOracle(t *testing.T, tr *Trace, b estBatch) []pipeline.ConfStats {
	t.Helper()
	want := replayOracle(tr, b.build())
	got := Replay(tr, b.build())
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("estimator %d (%s): kernel stats differ from the oracle\n got %+v\nwant %+v",
				i, want[i].Name, got[i], want[i])
		}
	}
	return want
}

// pendingAcross reports how many committed fetches are unresolved at
// the end of each chunk but the last.
func pendingAcross(tr *Trace) []int {
	var out []int
	pending := 0
	for ci := range tr.chunks {
		c := &tr.chunks[ci]
		fi := 0
		for k := 0; k < c.n; k++ {
			if !c.isFetch(k) {
				pending--
				continue
			}
			if c.flg[fi]&fCommitted != 0 {
				pending++
			}
			fi++
		}
		if ci < len(tr.chunks)-1 {
			out = append(out, pending)
		}
	}
	return out
}

// TestReplayKernelMatchesOracle: the chunk kernel reproduces the
// event-major oracle bit for bit over every family, boundary
// thresholds, one- and 16-member groups, mis-estimate runs longer than
// the histogram's 63-branch clamp, and resolves that cross chunk
// boundaries — on synthetic streams and on recorded runs of every
// predictor family.
func TestReplayKernelMatchesOracle(t *testing.T) {
	shapes := map[string]streamShape{
		"noisy":  {branches: 4_000, sites: 64, depth: 12, misp: 0.3, wrong: 0.3},
		"calm":   {branches: 4_000, sites: 16, depth: 4, misp: 0.05, wrong: 0.1, calm: 300},
		"chunks": {branches: 60_000, sites: 64, depth: 40, misp: 0.08, wrong: 0.2, calm: 2_000},
	}
	for name, s := range shapes {
		t.Run(name, func(t *testing.T) {
			tr := synthStream(rand.New(rand.NewSource(int64(len(name)))), s)
			want := assertKernelMatchesOracle(t, tr, kernelBatch())
			if s.calm == 0 {
				return
			}
			long := false // some member saw a run past the clamp
			for _, cs := range want {
				long = long || cs.MisestCommitted.Total[pipeline.DistanceBuckets-1] > 0
			}
			if !long {
				t.Error("no mis-estimate run reached the 63-branch clamp")
			}
		})
	}
	t.Run("chunk-crossing", func(t *testing.T) {
		tr := synthStream(rand.New(rand.NewSource(3)), shapes["chunks"])
		crossing := 0
		for _, n := range pendingAcross(tr) {
			crossing += n
		}
		if crossing == 0 {
			t.Fatal("no resolve crosses a chunk boundary")
		}
		assertKernelMatchesOracle(t, tr, kernelBatch())
	})
	t.Run("deep-pending", func(t *testing.T) {
		// More committed fetches outstanding than a window's scratch
		// holds: the carried rows must survive the columns growing.
		rng := rand.New(rand.NewSource(5))
		s := streamShape{sites: 64}
		r := NewRecorder()
		for i := 0; i < 2*viewTokens; i++ {
			synthEvent(r, rng, s, i%7 != 0, rng.Intn(10) != 0)
		}
		for i := 0; i < 2*viewTokens; i++ {
			if i%7 != 0 {
				r.Resolve(0, bpred.Info{}, false)
			}
		}
		// Estimates after the deep resolves see what they trained.
		for i := 0; i < viewTokens; i++ {
			synthEvent(r, rng, s, true, rng.Intn(10) != 0)
			r.Resolve(0, bpred.Info{}, false)
		}
		tr, err := r.Trace()
		if err != nil {
			t.Fatal(err)
		}
		assertKernelMatchesOracle(t, tr, kernelBatch())
	})
	t.Run("wide-mid-chunk", func(t *testing.T) {
		// One pc and one history past 16 bits in the middle of the
		// first chunk: the pc joins that chunk's dictionary, its
		// explicit histories gain a high half, the second chunk's have
		// none, and the rows on either side of the wide ones read back
		// through the same accessors.
		rng := rand.New(rand.NewSource(7))
		s := streamShape{sites: 64}
		r := NewRecorder()
		const fetches, lag = chunkTokens * 3 / 4, 3
		for i := 0; i < fetches; i++ {
			if rng.Intn(4) == 0 {
				synthEvent(r, rng, s, false, rng.Intn(2) == 0)
			}
			switch i {
			case chunkTokens / 4:
				r.Estimate(1<<20, bpred.Info{Pred: true, Hist: 3, C1: 3})
				r.Branch(obs.BranchEvent{PC: 1 << 20, Pred: true})
			case chunkTokens/4 + 1:
				r.Estimate(4096, bpred.Info{Hist: 1<<29 | 5, C1: 1, P1: true})
				r.Branch(obs.BranchEvent{PC: 4096})
			default:
				synthEvent(r, rng, s, true, rng.Intn(5) != 0)
			}
			if i >= lag {
				r.Resolve(0, bpred.Info{}, false)
			}
		}
		for i := 0; i < lag; i++ {
			r.Resolve(0, bpred.Info{}, false)
		}
		tr, err := r.Trace()
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.chunks) != 2 {
			t.Fatalf("got %d chunks, want 2", len(tr.chunks))
		}
		if c := &tr.chunks[0]; c.pc.dict == nil || c.hist.rule != histExplicit || c.hist.wide.hi == nil {
			t.Fatal("first chunk lacks its pc dictionary or its histories' high half")
		}
		if c := &tr.chunks[1]; c.pc.dict == nil || c.hist.rule != histExplicit || c.hist.wide.hi != nil {
			t.Fatal("second chunk lacks its pc dictionary or has a high half no history needs")
		}
		assertKernelMatchesOracle(t, tr, kernelBatch())
	})
	t.Run("static-wide-pc-range", func(t *testing.T) {
		// Pcs spread wider than the dense static table, so lookups
		// past its end fall back to the profile map.
		r := NewRecorder()
		pcs := []int64{0, 3, staticSpan - 1, staticSpan, 3 * staticSpan, 1<<31 - 1}
		for i := 0; i < 200; i++ {
			synthFetch(r, pcs[i%len(pcs)], i%5 != 0)
			if i%5 != 0 {
				r.Resolve(0, bpred.Info{}, false)
			}
		}
		tr, err := r.Trace()
		if err != nil {
			t.Fatal(err)
		}
		hc := map[int64]bool{3: true, staticSpan: true, 3 * staticSpan: true, 1<<31 - 1: false}
		assertKernelMatchesOracle(t, tr, estBatch{
			func() conf.Estimator { return conf.Static{HighConfidence: hc} },
		})
	})
	for _, pred := range []string{"gshare", "mcfarling", "sag"} {
		t.Run(pred, func(t *testing.T) {
			tr, _ := recordRun(t, pred)
			b := append(kernelBatch(), thresholdSweeps()...)
			b = append(b, func() conf.Estimator { return staticFor(t, pred) })
			assertKernelMatchesOracle(t, tr, b)
		})
	}
}

// FuzzReplayKernel: on any synthetic stream shape and any threshold
// set, the kernel matches the oracle.
func FuzzReplayKernel(f *testing.F) {
	f.Add(int64(1), uint16(200), uint8(8), uint8(60), uint8(40), uint16(0), []byte{0, 1, 2, 16, 17})
	f.Add(int64(2), uint16(3000), uint8(30), uint8(5), uint8(10), uint16(200), []byte{0, 3, 3, 8, 255})
	f.Add(int64(3), uint16(0), uint8(1), uint8(0), uint8(0), uint16(0), []byte{})
	f.Add(int64(4), uint16(40000), uint8(50), uint8(20), uint8(50), uint16(700), []byte{1, 5, 9, 13})
	f.Fuzz(func(t *testing.T, seed int64, branches uint16, depth, misp, wrong uint8, calm uint16, ths []byte) {
		if len(ths) > 32 {
			ths = ths[:32]
		}
		s := streamShape{
			branches: int(branches),
			sites:    64,
			depth:    int(depth)%64 + 1,
			misp:     float64(misp) / 255,
			wrong:    float64(wrong%200) / 255,
			calm:     int(calm),
		}
		tr := synthStream(rand.New(rand.NewSource(seed)), s)
		b := estBatch{func() conf.Estimator { return conf.SatCounters{} }}
		for _, b8 := range ths {
			th := int(b8)
			b = append(b,
				func() conf.Estimator { return conf.NewJRS(conf.JRSConfig{Entries: 64, Bits: 4, Threshold: th % 17}) },
				func() conf.Estimator {
					return conf.NewOnesCount(conf.OnesCountConfig{Entries: 32, Bits: 8, Threshold: th % 9, Enhanced: true})
				},
				func() conf.Estimator {
					return conf.NewGlobalMDCIndexed(conf.OnesCountConfig{Entries: 16, Bits: 6, Threshold: th % 7})
				},
				func() conf.Estimator { return conf.NewDistance(th) },
				func() conf.Estimator {
					return conf.NewJRSMcFarling(conf.JRSConfig{Entries: 32, Bits: 3, Threshold: th % 9}, conf.MetaSelected)
				})
		}
		want := replayOracle(tr, b.build())
		got := Replay(tr, b.build())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("kernel differs from the oracle on %+v, thresholds %v", s, ths)
		}
	})
}
