// Quickstart: simulate one benchmark on a gshare predictor with two
// confidence estimators attached, then print the quadrant table and the
// paper's four metrics for each estimator.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"specctrl/internal/bpred"
	"specctrl/internal/conf"
	"specctrl/internal/pipeline"
	"specctrl/internal/workload"
)

func main() {
	// 1. Pick a benchmark from the suite. Build scales with the outer
	//    iteration count; MaxCommitted below bounds the actual run.
	w, err := workload.ByName("compress")
	if err != nil {
		log.Fatal(err)
	}
	prog := w.Build(1 << 30)

	// 2. Configure the pipeline (the paper's machine: 4-wide fetch,
	//    3-cycle extra misprediction penalty, 64 kB L1 caches).
	cfg := pipeline.DefaultConfig()
	cfg.MaxCommitted = 1_000_000

	// 3. Attach a predictor and any number of confidence estimators.
	//    Estimators observe the run without changing it, so one run
	//    evaluates them all.
	jrs := conf.NewJRS(conf.DefaultJRS) // the hardware-intensive estimator
	sat := conf.SatCounters{}           // the free one (predictor state)
	dist := conf.NewDistance(4)         // the one-counter one (§4.1)
	cfg.Estimators = []conf.Estimator{jrs, sat, dist}
	sim, err := pipeline.New(cfg, prog, bpred.NewGshare(bpred.GshareBits))
	if err != nil {
		log.Fatal(err) // a ConfigError names the offending Config field
	}

	stats, err := sim.Run()
	if err != nil {
		log.Fatal(err)
	}

	// 4. Report.
	fmt.Printf("benchmark  %s: %d committed instructions, %d branches, IPC %.2f\n",
		w.Name, stats.Committed, stats.CommittedBr, stats.IPC())
	fmt.Printf("prediction accuracy %.1f%%, speculation ratio %.2f\n\n",
		stats.CommittedQ.Accuracy()*100, stats.SpeculationRatio())

	for _, cs := range stats.Confidence {
		q := cs.CommittedQ
		fmt.Printf("%-12s quadrants Chc=%d Ihc=%d Clc=%d Ilc=%d\n",
			cs.Name, q.Chc, q.Ihc, q.Clc, q.Ilc)
		fmt.Printf("             %s\n\n", q.Compute())
	}
}
