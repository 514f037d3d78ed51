package replay

import (
	"math/rand"
	"reflect"
	"testing"

	"specctrl/internal/conf"
)

// estBatch is an estimator list given as constructors, so every
// evaluation it feeds gets fresh, untrained instances.
type estBatch []func() conf.Estimator

func (b estBatch) build() []conf.Estimator {
	ests := make([]conf.Estimator, len(b))
	for i, mk := range b {
		ests[i] = mk()
	}
	return ests
}

// thresholdSweeps returns one threshold sweep per grouped family,
// boundary thresholds included (JRS 0 and 1<<Bits, CIR/gMDC 0 and Bits,
// Distance 0), plus further configurations of JRS, CIR and gMDC-CIR and
// an ungrouped estimator, all shuffled together so groups interleave in
// index order.
func thresholdSweeps() estBatch {
	var b estBatch
	for t := 0; t <= 16; t++ {
		b = append(b, func() conf.Estimator {
			return conf.NewJRS(conf.JRSConfig{Entries: 1024, Bits: 4, Threshold: t, Enhanced: true})
		})
		b = append(b, func() conf.Estimator {
			return conf.NewOnesCount(conf.OnesCountConfig{Entries: 4096, Bits: 16, Threshold: t, Enhanced: true})
		})
		b = append(b, func() conf.Estimator {
			return conf.NewGlobalMDCIndexed(conf.OnesCountConfig{Entries: 64, Bits: 16, Threshold: t})
		})
		b = append(b, func() conf.Estimator { return conf.NewDistance(t) })
	}
	for t := 0; t <= 8; t++ {
		b = append(b, func() conf.Estimator {
			return conf.NewOnesCount(conf.OnesCountConfig{Entries: 1024, Bits: 8, Threshold: t})
		})
	}
	// Configurations one field (or only the family) away from a sweep
	// above must not join it.
	for _, t := range []int{0, 8, 16} {
		b = append(b, func() conf.Estimator {
			return conf.NewJRS(conf.JRSConfig{Entries: 1024, Bits: 4, Threshold: t})
		})
		b = append(b, func() conf.Estimator {
			return conf.NewGlobalMDCIndexed(conf.OnesCountConfig{Entries: 16, Bits: 16, Threshold: t})
		})
		b = append(b, func() conf.Estimator {
			return conf.NewOnesCount(conf.OnesCountConfig{Entries: 64, Bits: 16, Threshold: t})
		})
	}
	b = append(b, func() conf.Estimator { return conf.SatCounters{} })
	rng := rand.New(rand.NewSource(14))
	rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return b
}

// sweepGroups is the number of threshold groups thresholdSweeps forms:
// JRS+ and JRS 1024x4, CIR 4096x16, 1024x8 and 64x16, gMDC-CIR 64x16
// and 16x16, and Distance.
const sweepGroups = 8

// singletons returns one estimator of each grouped family plus the
// JRS/McFarling hybrid, none sharing a group.
func singletons() estBatch {
	return estBatch{
		func() conf.Estimator {
			return conf.NewJRS(conf.JRSConfig{Entries: 4096, Bits: 4, Threshold: 15, Enhanced: true})
		},
		func() conf.Estimator {
			return conf.NewOnesCount(conf.OnesCountConfig{Entries: 4096, Bits: 16, Threshold: 16, Enhanced: true})
		},
		func() conf.Estimator {
			return conf.NewGlobalMDCIndexed(conf.OnesCountConfig{Entries: 64, Bits: 16, Threshold: 16})
		},
		func() conf.Estimator { return conf.NewDistance(7) },
		func() conf.Estimator {
			return conf.NewJRSMcFarling(conf.JRSConfig{Entries: 1024, Bits: 4, Threshold: 12}, conf.MetaSelected)
		},
	}
}

var groupCases = []struct {
	name   string
	batch  func() estBatch
	groups int
}{
	{"sweeps", thresholdSweeps, sweepGroups},
	{"singletons", singletons, 4},
}

// TestThresholdGroupPlan pins the plan the differential tests below
// exercise: sweeps form one group per configuration with levels
// ascending, singletons of the grouped families form one-member groups,
// every estimator belongs to exactly one unit, and no estimator the
// kernel knows takes interface dispatch.
func TestThresholdGroupPlan(t *testing.T) {
	for _, tc := range groupCases {
		t.Run(tc.name, func(t *testing.T) {
			ests := tc.batch().build()
			units := plan(&Trace{}, ests)
			groups := 0
			seen := make([]bool, len(ests))
			for _, u := range units {
				if _, _, grouped := u.sweepKey(); grouped {
					groups++
					for k := 1; k < len(u.members); k++ {
						if u.members[k-1].level > u.members[k].level {
							t.Fatalf("group levels not ascending: %+v", u.members)
						}
					}
				} else if len(u.members) != 1 {
					t.Fatalf("solo unit with %d members", len(u.members))
				}
				if u.kind == estGeneric {
					t.Errorf("%s takes interface dispatch", u.est.Name())
				}
				for _, m := range u.members {
					if seen[m.est] {
						t.Fatalf("estimator %d planned twice", m.est)
					}
					seen[m.est] = true
				}
			}
			if groups != tc.groups {
				t.Fatalf("%d threshold groups, want %d", groups, tc.groups)
			}
			for i, ok := range seen {
				if !ok {
					t.Fatalf("estimator %d (%s) not planned", i, ests[i].Name())
				}
			}
		})
	}
}

// TestThresholdGroupsMatchDirect: grouped replay must reproduce a
// direct simulation with the same estimators attached bit for bit, on
// every predictor family.
func TestThresholdGroupsMatchDirect(t *testing.T) {
	for _, predName := range []string{"gshare", "mcfarling", "sag"} {
		t.Run(predName, func(t *testing.T) {
			tr, _ := recordRun(t, predName)
			for _, tc := range groupCases {
				b := tc.batch()
				direct := directRun(t, predName, b.build()).Confidence
				confs := Replay(tr, b.build())
				for i := range confs {
					if !reflect.DeepEqual(direct[i], confs[i]) {
						t.Errorf("%s: %s replayed stats differ from direct simulation", tc.name, confs[i].Name)
					}
				}
			}
		})
	}
}
