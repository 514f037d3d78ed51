// Tunedstatic: demonstrate the paper's §5 future-work item implemented
// in this library — tuning static confidence to hit a SPEC or PVN target
// instead of using one fixed accuracy threshold — plus the And
// combinator for composing a hardware scheme with static hints.
//
//	go run ./examples/tunedstatic
package main

import (
	"fmt"
	"log"

	"specctrl/internal/bpred"
	"specctrl/internal/conf"
	"specctrl/internal/pipeline"
	"specctrl/internal/profile"
	"specctrl/internal/workload"
)

func main() {
	w, err := workload.ByName("gcc")
	if err != nil {
		log.Fatal(err)
	}
	prog := w.Build(1 << 30)
	cfg := pipeline.DefaultConfig()
	cfg.MaxCommitted = 500_000

	// 1. Profile pass: per-branch-site accuracy under the predictor.
	pcfg := cfg
	pcfg.CollectSiteStats = true
	train, err := pipeline.New(pcfg, prog, bpred.NewGshare(bpred.GshareBits))
	if err != nil {
		log.Fatal(err)
	}
	tst, err := train.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profiled %d branch sites over %d branches\n\n",
		len(tst.Sites), tst.CommittedBr)

	// 2. Tune static estimators for explicit targets, and also build
	//    the paper's fixed-threshold variant for comparison.
	fixed := profile.FromSites(tst.Sites, profile.DefaultOptions())
	spec70, err := profile.Tune(tst.Sites, profile.GoalSPEC, 0.70)
	if err != nil {
		log.Fatal(err)
	}
	spec90, err := profile.Tune(tst.Sites, profile.GoalSPEC, 0.90)
	if err != nil {
		log.Fatal(err)
	}
	pvn30, err := profile.Tune(tst.Sites, profile.GoalPVN, 0.30)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Combinators: require BOTH the static hint and the hardware
	//    saturating counters to be confident.
	combo := conf.And{A: spec70, B: conf.SatCounters{}}

	// 4. Evaluate everything in one run.
	names := []string{"Static>90% (paper)", "Tuned SPEC>=70%", "Tuned SPEC>=90%",
		"Tuned PVN>=30%", "And(SPEC70, SatCnt)"}
	cfg.Estimators = []conf.Estimator{fixed, spec70, spec90, pvn30, combo}
	sim, err := pipeline.New(cfg, prog, bpred.NewGshare(bpred.GshareBits))
	if err != nil {
		log.Fatal(err)
	}
	st, err := sim.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-20s %s\n", "estimator", "metrics (committed branches)")
	for i, cs := range st.Confidence {
		fmt.Printf("%-20s %s\n", names[i], cs.CommittedQ.Compute())
	}
	fmt.Println("\nTuning trades SENS for SPEC on a dial; the And combinator pushes")
	fmt.Println("SPEC and PVP higher still by demanding agreement from two schemes.")
}
