// Powergating: demonstrate pipeline gating (§2.2 "Power conservation"):
// stall fetch while too many low-confidence branches are in flight, and
// measure how much wrong-path work disappears versus how much slower the
// program runs, across gating thresholds.
//
//	go run ./examples/powergating
package main

import (
	"fmt"
	"log"

	"specctrl/internal/bpred"
	"specctrl/internal/conf"
	"specctrl/internal/gating"
	"specctrl/internal/isa"
	"specctrl/internal/pipeline"
	"specctrl/internal/policy"
	"specctrl/internal/workload"
)

// extraWork is wrong-path instructions per committed instruction.
func extraWork(st *pipeline.Stats) float64 {
	if st.Committed == 0 {
		return 0
	}
	return float64(st.WrongPath) / float64(st.Committed)
}

func main() {
	names := []string{"compress", "gcc", "go", "perl"}
	progs := map[string]*isa.Program{}
	for _, n := range names {
		w, err := workload.ByName(n)
		if err != nil {
			log.Fatal(err)
		}
		progs[n] = w.Build(1 << 30)
	}

	pcfg := pipeline.DefaultConfig()
	pcfg.MaxCommitted = 500_000
	f := policy.Factories{
		Predictor: func() bpred.Predictor { return bpred.NewGshare(12) },
		Estimator: func() conf.Estimator { return conf.NewJRS(conf.DefaultJRS) },
	}

	for thr := 1; thr <= 3; thr++ {
		fmt.Printf("Pipeline gating: estimator %s, threshold %d\n", f.Estimator().Name(), thr)
		fmt.Printf("%-9s %11s %11s %10s %9s\n",
			"app", "extra-work", "gated-ew", "reduction", "slowdown")
		for _, n := range names {
			r, err := gating.Run(gating.Config{Threshold: thr, Pipeline: pcfg}, progs[n], f)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-9s %10.1f%% %10.1f%% %9.1f%% %8.2f%%\n",
				n, extraWork(r.Baseline)*100, extraWork(r.Gated)*100,
				r.ExtraWorkReduction()*100, r.Slowdown()*100)
		}
		fmt.Println()
	}
	fmt.Println("Reading the table: 'extra-work' is wrong-path instructions per")
	fmt.Println("committed instruction; gating trades a small slowdown for a large")
	fmt.Println("reduction — the trade sharpens as the estimator's PVN rises.")
}
