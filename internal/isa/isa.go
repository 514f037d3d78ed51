// Package isa defines the instruction set of the simulated machine.
//
// The machine is a small word-addressed RISC with 32 general-purpose
// 64-bit integer registers (R0 hardwired to zero), a program counter in
// instruction words, and a flat word-addressed data memory. The set is
// deliberately minimal — ALU operations, loads and stores, conditional
// branches, direct and indirect jumps — because the experiments in this
// repository depend only on control-flow behaviour, not on ISA richness.
//
// Programs are held as decoded Instruction structs. Each instruction
// occupies one instruction word (the PC counts words), which is the unit
// of the instruction cache's footprint.
package isa

import "fmt"

// NumRegs is the number of general-purpose registers. Register 0 reads as
// zero and ignores writes, as in MIPS and RISC-V.
const NumRegs = 32

// Reg identifies a general-purpose register.
type Reg uint8

// Conventional register roles used by the assembler and workloads.
const (
	Zero Reg = 0  // hardwired zero
	RA   Reg = 31 // return address (written by JAL/JALR)
	SP   Reg = 30 // stack pointer by convention
)

// Op enumerates the instruction opcodes.
type Op uint8

// Opcodes. The comment gives the semantics; rd/ra/rb are register fields
// and imm is the signed immediate.
const (
	OpNop  Op = iota // no operation
	OpHalt           // stop the machine

	// ALU register-register: rd = ra <op> rb.
	OpAdd
	OpSub
	OpAnd
	OpOr
	OpXor
	OpShl  // rd = ra << (rb & 63)
	OpShr  // rd = uint64(ra) >> (rb & 63)
	OpMul  // rd = ra * rb
	OpDiv  // rd = ra / rb, 0 if rb == 0
	OpRem  // rd = ra % rb, 0 if rb == 0
	OpSlt  // rd = 1 if ra < rb (signed) else 0
	OpSltu // rd = 1 if uint64(ra) < uint64(rb) else 0

	// ALU register-immediate: rd = ra <op> imm.
	OpAddi
	OpAndi
	OpOri
	OpXori
	OpShli // rd = ra << (imm & 63)
	OpShri // rd = uint64(ra) >> (imm & 63)
	OpMuli
	OpSlti // rd = 1 if ra < imm (signed) else 0
	OpLui  // rd = imm << 16

	// Memory: word addressed; effective address = ra + imm.
	OpLd // rd = mem[ra+imm]
	OpSt // mem[ra+imm] = rb

	// Control flow. Branch targets are PC-relative in instruction
	// words: next PC = pc + 1 + imm when taken.
	OpBeq // taken if ra == rb
	OpBne // taken if ra != rb
	OpBlt // taken if ra < rb (signed)
	OpBge // taken if ra >= rb (signed)

	OpJal  // rd = pc + 1; pc = pc + 1 + imm (direct call/jump)
	OpJalr // rd = pc + 1; pc = ra + imm (indirect jump/return)

	numOps // sentinel; keep last
)

var opNames = [numOps]string{
	OpNop: "nop", OpHalt: "halt",
	OpAdd: "add", OpSub: "sub", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpShr: "shr", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpSlt: "slt", OpSltu: "sltu",
	OpAddi: "addi", OpAndi: "andi", OpOri: "ori", OpXori: "xori",
	OpShli: "shli", OpShri: "shri", OpMuli: "muli", OpSlti: "slti",
	OpLui: "lui",
	OpLd:  "ld", OpSt: "st",
	OpBeq: "beq", OpBne: "bne", OpBlt: "blt", OpBge: "bge",
	OpJal: "jal", OpJalr: "jalr",
}

// String returns the mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsCondBranch reports whether o is a conditional branch.
func (o Op) IsCondBranch() bool {
	switch o {
	case OpBeq, OpBne, OpBlt, OpBge:
		return true
	}
	return false
}

// IsControl reports whether o redirects control flow (branches and jumps).
func (o Op) IsControl() bool {
	switch o {
	case OpBeq, OpBne, OpBlt, OpBge, OpJal, OpJalr:
		return true
	}
	return false
}

// IsMem reports whether o accesses data memory.
func (o Op) IsMem() bool {
	return o == OpLd || o == OpSt
}

// Instruction is the decoded form used by the emulator and pipeline.
type Instruction struct {
	Op  Op
	Rd  Reg   // destination register
	Ra  Reg   // first source register
	Rb  Reg   // second source register
	Imm int32 // signed immediate / branch displacement
}

// String renders the instruction in assembler syntax.
func (in Instruction) String() string {
	switch {
	case in.Op == OpNop || in.Op == OpHalt:
		return in.Op.String()
	case in.Op == OpJal:
		return fmt.Sprintf("%s r%d, %+d", in.Op, in.Rd, in.Imm)
	case in.Op == OpJalr:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Rd, in.Ra, in.Imm)
	case in.Op.IsCondBranch():
		return fmt.Sprintf("%s r%d, r%d, %+d", in.Op, in.Ra, in.Rb, in.Imm)
	case in.Op == OpLd:
		return fmt.Sprintf("ld r%d, %d(r%d)", in.Rd, in.Imm, in.Ra)
	case in.Op == OpSt:
		return fmt.Sprintf("st r%d, %d(r%d)", in.Rb, in.Imm, in.Ra)
	case in.Op == OpLui:
		return fmt.Sprintf("lui r%d, %d", in.Rd, in.Imm)
	case in.Op >= OpAddi && in.Op <= OpSlti:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Rd, in.Ra, in.Imm)
	default:
		return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.Rd, in.Ra, in.Rb)
	}
}

// Program is a fully assembled program: code, initial data image and
// entry point. Programs are immutable once built.
type Program struct {
	Name  string
	Code  []Instruction
	Data  map[int64]int64 // initial data memory image, word addressed
	Entry int64           // starting PC
}
