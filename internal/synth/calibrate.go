package synth

import (
	"errors"
	"fmt"

	"specctrl/internal/bpred"
	"specctrl/internal/emu"
	"specctrl/internal/isa"
)

// Characterization is a program's realized branch behavior, measured by
// an architectural run: committed instruction and branch counts, the
// taken mix, and the misprediction count of a reference gshare
// predictor in the paper's geometry (bpred.GshareBits) driven in commit
// order (no wrong-path pollution, so rates
// are close to — not identical to — the pipeline's Table 1 numbers).
type Characterization struct {
	// Committed is the number of instructions executed.
	Committed uint64
	// Branches is the number of conditional branches among them.
	Branches uint64
	// Taken is how many of those branches were taken.
	Taken uint64
	// Mispredicted is the reference predictor's miss count.
	Mispredicted uint64
}

// Density returns conditional branches per committed instruction.
func (c Characterization) Density() float64 {
	if c.Committed == 0 {
		return 0
	}
	return float64(c.Branches) / float64(c.Committed)
}

// TakenRate returns the fraction of conditional branches taken.
func (c Characterization) TakenRate() float64 {
	if c.Branches == 0 {
		return 0
	}
	return float64(c.Taken) / float64(c.Branches)
}

// MispredictRate returns the reference predictor's miss rate.
func (c Characterization) MispredictRate() float64 {
	if c.Branches == 0 {
		return 0
	}
	return float64(c.Mispredicted) / float64(c.Branches)
}

// String renders the characterization as a one-line summary.
func (c Characterization) String() string {
	return fmt.Sprintf("committed %d, br %.1f%%, taken %.1f%%, misp %.1f%%",
		c.Committed, c.Density()*100, c.TakenRate()*100, c.MispredictRate()*100)
}

// Measure runs the program on the architectural emulator for up to
// maxCommitted instructions and returns its realized characterization.
// This is the generator's cheap calibration loop: no pipeline, no
// estimators, just commit-order branch outcomes through one reference
// predictor.
func Measure(prog *isa.Program, maxCommitted uint64) (Characterization, error) {
	m := emu.NewMachine(prog)
	pred := bpred.NewGshare(bpred.GshareBits)
	var c Characterization
	for m.Executed < maxCommitted {
		pc := m.State.PC
		in, res, err := m.Step()
		if err != nil {
			if errors.Is(err, emu.ErrHalted) {
				break
			}
			return c, fmt.Errorf("synth: measure %s: %w", prog.Name, err)
		}
		if !in.Op.IsCondBranch() {
			continue
		}
		c.Branches++
		if res.Taken {
			c.Taken++
		}
		p, ckpt, info := pred.Predict(pc)
		pred.Resolve(pc, info, res.Taken)
		if p != res.Taken {
			pred.Recover(ckpt, pc, res.Taken)
			c.Mispredicted++
		}
	}
	c.Committed = m.Executed
	return c, nil
}

// Band is an acceptance window over a realized characterization, the
// unit of the generator's calibration contract: PaperTargets pins one
// per paper benchmark, and docs/WORKLOADS.md documents how to derive
// new ones.
type Band struct {
	// DensityLo/DensityHi bound branches per committed instruction.
	DensityLo, DensityHi float64
	// TakenLo/TakenHi bound the taken fraction.
	TakenLo, TakenHi float64
	// MispLo/MispHi bound the reference misprediction rate.
	MispLo, MispHi float64
}

// Contains reports whether the characterization falls inside the band.
func (b Band) Contains(c Characterization) bool {
	return c.Density() >= b.DensityLo && c.Density() <= b.DensityHi &&
		c.TakenRate() >= b.TakenLo && c.TakenRate() <= b.TakenHi &&
		c.MispredictRate() >= b.MispLo && c.MispredictRate() <= b.MispHi
}

// String renders the band's three ranges as a one-line summary.
func (b Band) String() string {
	return fmt.Sprintf("br [%.1f%%,%.1f%%], taken [%.1f%%,%.1f%%], misp [%.1f%%,%.1f%%]",
		b.DensityLo*100, b.DensityHi*100, b.TakenLo*100, b.TakenHi*100, b.MispLo*100, b.MispHi*100)
}
