// Package smt implements the multithreaded fetch-policy application of
// confidence estimation (§2.2, "SMT" and "Bandwidth multithreading").
//
// Several independent hardware threads share one fetch port. Each cycle a
// scheduler grants the port to one thread; the others' back ends still
// advance (branches resolve, squashes happen) but they fetch nothing.
// The confidence-directed policy avoids granting the port to threads
// with unresolved low-confidence branches — those threads are likely
// fetching wrong-path instructions that will be squashed, so the slot is
// better spent on a thread whose work will commit. The paper's claim:
// a high-PVN estimator makes thread switching profitable.
//
// Simplification vs real SMT hardware: each thread has private predictor
// and estimator tables (no cross-thread aliasing), and the granted
// thread uses the full fetch width. Both choices isolate the effect
// under study — the fetch policy — from table-sharing interference.
package smt

import (
	"fmt"

	"specctrl/internal/bpred"
	"specctrl/internal/conf"
	"specctrl/internal/isa"
	"specctrl/internal/pipeline"
)

// Policy selects the fetch scheduler.
type Policy int

const (
	// RoundRobin grants the fetch port to threads in strict rotation.
	RoundRobin Policy = iota
	// ConfidenceGate prefers threads with no unresolved low-confidence
	// branches, rotating among them; if every thread is low-confidence,
	// it falls back to rotation over all.
	ConfidenceGate
	// ICount approximates Tullsen et al.'s ICOUNT policy with the
	// occupancy signal this model tracks: grant the thread with the
	// fewest unresolved branches (ties broken by rotation). Unlike
	// ConfidenceGate it cannot tell a probably-wrong in-flight branch
	// from a probably-right one.
	ICount
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case ConfidenceGate:
		return "confidence"
	default:
		return "icount"
	}
}

// Config parameterizes an SMT run.
type Config struct {
	// Policy selects the fetch scheduler.
	Policy Policy
	// CycleBudget is the number of cycles to simulate.
	CycleBudget uint64
	// Pipeline configures each thread's machine. MaxCommitted and
	// MaxCycles are ignored (the budget governs), and so is Policy: the
	// fetch scheduler is the run's only speculation control.
	Pipeline pipeline.Config
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.CycleBudget == 0 {
		return fmt.Errorf("smt: zero cycle budget")
	}
	return c.Pipeline.Validate()
}

// Result reports an SMT run.
type Result struct {
	// PerThread holds each thread's committed instructions within the
	// budget.
	PerThread []uint64
	// Committed is the aggregate committed instruction count.
	Committed uint64
	// Cycles is the simulated cycle count (= budget unless all threads
	// finished early).
	Cycles uint64
	// ThreadCycles sums the threads' own simulated cycles: the work the
	// run did, since every running thread ticks every cycle.
	ThreadCycles uint64
	// WrongPath is the aggregate squashed instruction count (wasted
	// fetch/execute work).
	WrongPath uint64
}

// Throughput returns aggregate committed instructions per cycle.
func (r *Result) Throughput() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Committed) / float64(r.Cycles)
}

// Run simulates the threads under the configured fetch policy. Each
// thread gets a fresh predictor from newPred and a fresh estimator from
// newEst.
func Run(cfg Config, progs []*isa.Program, newPred func() bpred.Predictor, newEst func() conf.Estimator) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(progs) == 0 {
		return nil, fmt.Errorf("smt: no threads")
	}
	pcfg := cfg.Pipeline
	pcfg.MaxCommitted = 0
	pcfg.MaxCycles = 0 // the budget loop bounds the run
	pcfg.Policy = nil
	sims := make([]*pipeline.Sim, len(progs))
	done := make([]bool, len(progs))
	for i, p := range progs {
		tcfg := pcfg
		tcfg.Estimators = []conf.Estimator{newEst()}
		sim, err := pipeline.New(tcfg, p, newPred())
		if err != nil {
			return nil, fmt.Errorf("smt thread %d: %w", i, err)
		}
		sims[i] = sim
	}

	next := 0 // rotation cursor
	var cycles uint64
	for cycles = 0; cycles < cfg.CycleBudget; cycles++ {
		grant := pick(cfg.Policy, sims, done, &next)
		allDone := true
		for i, sim := range sims {
			if done[i] {
				continue
			}
			allDone = false
			d, err := sim.Tick(i == grant)
			if err != nil {
				return nil, fmt.Errorf("smt thread %d: %w", i, err)
			}
			if d {
				done[i] = true
			}
		}
		if allDone {
			break
		}
	}

	res := &Result{Cycles: cycles}
	for _, sim := range sims {
		st := sim.Finish()
		res.PerThread = append(res.PerThread, st.Committed)
		res.Committed += st.Committed
		res.WrongPath += st.WrongPath
		res.ThreadCycles += st.Cycles
	}
	return res, nil
}

// pick chooses the thread to grant the fetch port this cycle, or -1.
func pick(policy Policy, sims []*pipeline.Sim, done []bool, next *int) int {
	n := len(sims)
	switch policy {
	case ConfidenceGate:
		// Running threads with no pending low-confidence branch, in
		// rotation order.
		for off := 0; off < n; off++ {
			i := (*next + off) % n
			if !done[i] && sims[i].PendingLowConf() == 0 {
				*next = (i + 1) % n
				return i
			}
		}
	case ICount:
		best, bestOcc := -1, 1<<30
		for off := 0; off < n; off++ {
			i := (*next + off) % n
			if done[i] {
				continue
			}
			if occ := sims[i].PendingBranches(); occ < bestOcc {
				best, bestOcc = i, occ
			}
		}
		if best >= 0 {
			*next = (best + 1) % n
			return best
		}
	}
	// Fallback / round-robin: any running thread.
	for off := 0; off < n; off++ {
		i := (*next + off) % n
		if !done[i] {
			*next = (i + 1) % n
			return i
		}
	}
	return -1
}
