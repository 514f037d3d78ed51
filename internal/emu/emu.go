// Package emu implements the architectural (functional) emulator for the
// simulated ISA.
//
// The emulator executes a Program sequentially and precisely, one
// instruction per Step, with no timing model. It serves three roles:
//
//   - oracle: the pipeline simulator checks its committed instruction
//     stream against a lockstep emulator run;
//   - profiler: the static confidence estimator's training pass runs a
//     predictor over the emulator's branch stream;
//   - workload validation: tests execute workloads to completion and check
//     their architectural effects.
//
// Step semantics mirror internal/isa exactly; the pipeline simulator
// shares this implementation via ExecInto so the two can never diverge.
package emu

import (
	"errors"
	"fmt"

	"specctrl/internal/isa"
	"specctrl/internal/mem"
)

// ErrHalted is returned by Step once the machine has executed a HALT.
var ErrHalted = errors.New("emu: machine halted")

// MemOp describes the memory access performed by an instruction, if any.
// The pipeline simulator probes its D-cache model with the address.
type MemOp struct {
	IsLoad  bool
	IsStore bool
	Addr    int64
	Value   int64 // value stored (for stores) or loaded (for loads)
}

// Result describes the architectural effect of executing one instruction.
type Result struct {
	NextPC int64
	// Taken is meaningful only for conditional branches.
	Taken bool
	Mem   MemOp
	// WroteReg is the destination register actually written (Zero if
	// none); Value is the value written.
	WroteReg isa.Reg
	Value    int64
	Halted   bool
}

// State is a machine state: registers and PC. Memory lives separately so
// that different execution models can share or fork it independently.
type State struct {
	Regs [isa.NumRegs]int64
	PC   int64
}

// Exec executes instruction in against state s and memory m, updating
// both, and returns the architectural effect. It is the single source of
// truth for instruction semantics. Wrong-path stores need no special
// handling here: the pipeline journals them in m and rolls them back.
func Exec(s *State, m *mem.Memory, in isa.Instruction) Result {
	var r Result
	ExecInto(s, m, in, &r)
	return r
}

// ExecInto is Exec with a caller-supplied Result, for per-cycle loops
// that cannot afford the by-value return copy (the pipeline simulator
// executes one instruction per fetch slot). r is fully overwritten; it
// may be a reused scratch variable. Semantics are identical to Exec —
// this is the same code, not a copy.
func ExecInto(s *State, m *mem.Memory, in isa.Instruction, r *Result) {
	*r = Result{NextPC: s.PC + 1}
	ra, rb := s.Regs[in.Ra], s.Regs[in.Rb]
	imm := int64(in.Imm)

	// Register-writing instructions compute v and fall through to the
	// single write-back below; the others return from their case.
	var v int64
	switch in.Op {
	case isa.OpAdd:
		v = ra + rb
	case isa.OpSub:
		v = ra - rb
	case isa.OpAnd:
		v = ra & rb
	case isa.OpOr:
		v = ra | rb
	case isa.OpXor:
		v = ra ^ rb
	case isa.OpShl:
		v = ra << (uint64(rb) & 63)
	case isa.OpShr:
		v = int64(uint64(ra) >> (uint64(rb) & 63))
	case isa.OpMul:
		v = ra * rb
	case isa.OpDiv:
		if rb != 0 {
			v = ra / rb
		}
	case isa.OpRem:
		if rb != 0 {
			v = ra % rb
		}
	case isa.OpSlt:
		v = boolToInt(ra < rb)
	case isa.OpSltu:
		v = boolToInt(uint64(ra) < uint64(rb))

	case isa.OpAddi:
		v = ra + imm
	case isa.OpAndi:
		v = ra & imm
	case isa.OpOri:
		v = ra | imm
	case isa.OpXori:
		v = ra ^ imm
	case isa.OpShli:
		v = ra << (uint64(imm) & 63)
	case isa.OpShri:
		v = int64(uint64(ra) >> (uint64(imm) & 63))
	case isa.OpMuli:
		v = ra * imm
	case isa.OpSlti:
		v = boolToInt(ra < imm)
	case isa.OpLui:
		v = imm << 16

	case isa.OpLd:
		v = m.Read(ra + imm)
		r.Mem = MemOp{IsLoad: true, Addr: ra + imm, Value: v}

	case isa.OpJal:
		v = s.PC + 1
		r.NextPC = s.PC + 1 + imm
	case isa.OpJalr:
		// The target uses ra as read before the link write, in case
		// Rd == Ra.
		v = s.PC + 1
		r.NextPC = ra + imm

	case isa.OpNop:
		s.PC = r.NextPC
		return
	case isa.OpHalt:
		r.Halted = true
		r.NextPC = s.PC
		return
	case isa.OpSt:
		m.Write(ra+imm, rb)
		r.Mem = MemOp{IsStore: true, Addr: ra + imm, Value: rb}
		s.PC = r.NextPC
		return
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
		taken := false
		switch in.Op {
		case isa.OpBeq:
			taken = ra == rb
		case isa.OpBne:
			taken = ra != rb
		case isa.OpBlt:
			taken = ra < rb
		case isa.OpBge:
			taken = ra >= rb
		}
		r.Taken = taken
		if taken {
			r.NextPC = s.PC + 1 + imm
		}
		s.PC = r.NextPC
		return

	default:
		panic(fmt.Sprintf("emu: unhandled opcode %v", in.Op))
	}

	if in.Rd != isa.Zero {
		s.Regs[in.Rd] = v
	}
	r.WroteReg = in.Rd
	r.Value = v
	s.PC = r.NextPC
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Machine couples a program, a state and a memory into a runnable
// functional machine.
type Machine struct {
	Prog   *isa.Program
	State  State
	Mem    *mem.Memory
	halted bool

	// Executed counts instructions retired, and CondBranches counts the
	// conditional branches among them.
	Executed     uint64
	CondBranches uint64
}

// NewMachine returns a machine loaded with p, its data image applied, PC
// at the entry point.
func NewMachine(p *isa.Program) *Machine {
	return &Machine{
		Prog:  p,
		State: State{PC: p.Entry},
		Mem:   mem.NewFromImage(p.Data),
	}
}

// Halted reports whether the machine has executed HALT.
func (m *Machine) Halted() bool { return m.halted }

// Fetch returns the instruction at pc. Out-of-range PCs decode as HALT,
// so runaway wrong-path execution self-terminates harmlessly.
func (m *Machine) Fetch(pc int64) isa.Instruction {
	if pc < 0 || pc >= int64(len(m.Prog.Code)) {
		return isa.Instruction{Op: isa.OpHalt}
	}
	return m.Prog.Code[pc]
}

// Step executes one instruction. It returns the executed instruction, its
// effect, and ErrHalted if the machine had already halted.
func (m *Machine) Step() (isa.Instruction, Result, error) {
	if m.halted {
		return isa.Instruction{}, Result{}, ErrHalted
	}
	in := m.Fetch(m.State.PC)
	res := Exec(&m.State, m.Mem, in)
	m.Executed++
	if in.Op.IsCondBranch() {
		m.CondBranches++
	}
	if res.Halted {
		m.halted = true
	}
	return in, res, nil
}

// Run executes until HALT or until maxInstructions have retired
// (0 = unlimited). It returns the number of instructions executed and an
// error if the limit was hit before the program halted.
func (m *Machine) Run(maxInstructions uint64) (uint64, error) {
	start := m.Executed
	for !m.halted {
		if maxInstructions > 0 && m.Executed-start >= maxInstructions {
			return m.Executed - start, fmt.Errorf("emu: %s did not halt within %d instructions",
				m.Prog.Name, maxInstructions)
		}
		if _, _, err := m.Step(); err != nil {
			return m.Executed - start, err
		}
	}
	return m.Executed - start, nil
}
