package isa

import (
	"strings"
	"testing"
)

func TestOpClassification(t *testing.T) {
	cond := []Op{OpBeq, OpBne, OpBlt, OpBge}
	for _, op := range cond {
		if !op.IsCondBranch() || !op.IsControl() {
			t.Errorf("%s should be a conditional branch and control", op)
		}
	}
	for _, op := range []Op{OpJal, OpJalr} {
		if op.IsCondBranch() {
			t.Errorf("%s should not be a conditional branch", op)
		}
		if !op.IsControl() {
			t.Errorf("%s should be control", op)
		}
	}
	for _, op := range []Op{OpAdd, OpLd, OpSt, OpNop, OpHalt} {
		if op.IsCondBranch() || op.IsControl() {
			t.Errorf("%s should not be control flow", op)
		}
	}
	if !OpLd.IsMem() || !OpSt.IsMem() || OpAdd.IsMem() {
		t.Error("IsMem misclassifies")
	}
}

func TestOpStrings(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		s := op.String()
		if s == "" || strings.HasPrefix(s, "op(") {
			t.Errorf("opcode %d has no mnemonic", op)
		}
	}
	if got := Op(200).String(); got != "op(200)" {
		t.Errorf("invalid opcode String = %q", got)
	}
}

func TestInstructionString(t *testing.T) {
	cases := []struct {
		in   Instruction
		want string
	}{
		{Instruction{Op: OpNop}, "nop"},
		{Instruction{Op: OpAdd, Rd: 1, Ra: 2, Rb: 3}, "add r1, r2, r3"},
		{Instruction{Op: OpAddi, Rd: 1, Ra: 2, Imm: -5}, "addi r1, r2, -5"},
		{Instruction{Op: OpLd, Rd: 4, Ra: 5, Imm: 8}, "ld r4, 8(r5)"},
		{Instruction{Op: OpSt, Rb: 4, Ra: 5, Imm: 8}, "st r4, 8(r5)"},
		{Instruction{Op: OpBeq, Ra: 1, Rb: 2, Imm: -3}, "beq r1, r2, -3"},
		{Instruction{Op: OpJal, Rd: 31, Imm: 10}, "jal r31, +10"},
		{Instruction{Op: OpLui, Rd: 7, Imm: 3}, "lui r7, 3"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestBuilderForwardAndBackwardLabels(t *testing.T) {
	b := NewBuilder("t")
	b.Li(1, 0)
	b.Label("loop")
	b.Addi(1, 1, 1)
	b.Li(2, 10)
	b.Blt(1, 2, "loop") // backward
	b.Beq(1, 2, "done") // forward
	b.Jump("loop")
	b.Label("done")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Branch at index 3 targets index 1: disp = 1-3-1 = -3.
	if p.Code[3].Imm != -3 {
		t.Errorf("backward displacement = %d, want -3", p.Code[3].Imm)
	}
	// Branch at index 4 targets index 6: disp = 6-4-1 = 1.
	if p.Code[4].Imm != 1 {
		t.Errorf("forward displacement = %d, want 1", p.Code[4].Imm)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder("t")
	b.Jump("nowhere")
	if _, err := b.Build(); err == nil {
		t.Error("Build accepted undefined label")
	}
}

func TestBuilderRedefinedLabel(t *testing.T) {
	b := NewBuilder("t")
	b.Label("a").Nop().Label("a")
	if _, err := b.Build(); err == nil {
		t.Error("Build accepted redefined label")
	}
}

func TestBuilderLiLabel(t *testing.T) {
	b := NewBuilder("t")
	b.LiLabel(1, "fn")
	b.Halt()
	b.Label("fn")
	b.Ret()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[0].Imm != 2 {
		t.Errorf("LiLabel imm = %d, want 2", p.Code[0].Imm)
	}
}

func TestBuilderDataWords(t *testing.T) {
	b := NewBuilder("t")
	b.Words(100, 7, 8, 9).Word(200, -1)
	b.Halt()
	p := b.MustBuild()
	for addr, want := range map[int64]int64{100: 7, 101: 8, 102: 9, 200: -1} {
		if got := p.Data[addr]; got != want {
			t.Errorf("data[%d] = %d, want %d", addr, got, want)
		}
	}
}

func TestBuildIsolation(t *testing.T) {
	// Mutating the builder after Build must not affect the program.
	b := NewBuilder("t")
	b.Nop()
	p := b.MustBuild()
	b.Halt()
	if len(p.Code) != 1 {
		t.Errorf("program code grew after Build: %d", len(p.Code))
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild did not panic on undefined label")
		}
	}()
	NewBuilder("t").Jump("missing").MustBuild()
}

func TestDisassemble(t *testing.T) {
	b := NewBuilder("t")
	b.Label("start").Li(1, 5).Jump("start")
	p := b.MustBuild()
	text := Disassemble(p, b.Labels())
	if !strings.Contains(text, "start:") || !strings.Contains(text, "addi r1, r0, 5") {
		t.Errorf("disassembly missing expected content:\n%s", text)
	}
}
