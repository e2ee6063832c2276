package xdp

import (
	"encoding/binary"
	"testing"
)

// insnWire is the fuzz wire format: 14 bytes per instruction, raw (no
// modular clamping), so the fuzzer reaches both the verifier's error
// paths and, through them, valid programs.
const insnWire = 14

func decodeFuzzProgram(data []byte) *Program {
	n := len(data) / insnWire
	if n == 0 || n > MaxInsns+8 {
		return nil
	}
	insns := make([]Insn, n)
	for i := range insns {
		b := data[i*insnWire : (i+1)*insnWire]
		insns[i] = Insn{
			Op:     Op(b[0]),
			Dst:    Reg(b[1]),
			Src:    Reg(b[2]),
			Off:    int16(binary.BigEndian.Uint16(b[3:5])),
			Imm:    int64(binary.BigEndian.Uint64(b[5:13])),
			UseImm: b[13]&1 == 1,
		}
	}
	return &Program{Name: "fuzz", Insns: insns}
}

func encodeFuzzProgram(p *Program) []byte {
	out := make([]byte, 0, len(p.Insns)*insnWire)
	for _, in := range p.Insns {
		var b [insnWire]byte
		b[0], b[1], b[2] = byte(in.Op), byte(in.Dst), byte(in.Src)
		binary.BigEndian.PutUint16(b[3:5], uint16(in.Off))
		binary.BigEndian.PutUint64(b[5:13], uint64(in.Imm))
		if in.UseImm {
			b[13] = 1
		}
		out = append(out, b[:]...)
	}
	return out
}

// seedPrograms is the corpus shared by both targets: the optimizer test
// programs (redundant loads, jump chains, trampolines) plus degenerate
// shapes that sit right on verifier edges.
func seedPrograms() []*Program {
	return []*Program{
		{Name: "pass", Insns: []Insn{MovImm(0, ActPass), Exit()}},
		{Name: "dup-loads", Insns: []Insn{
			MovImm(1, 0), LdH(2, 1, 12), LdH(3, 1, 12),
			JNeImm(2, 0x0800, 2), MovImm(0, ActDrop), Exit(),
			MovImm(0, ActPass), Exit(),
		}},
		{Name: "drop-udp-53", Insns: []Insn{
			MovImm(1, 0), LdH(2, 1, 12), LdH(6, 1, 12), MovImm(7, 0),
			JNeImm(2, 0x0800, 8), LdB(3, 1, 23), JNeImm(3, 17, 6),
			LdB(4, 1, 14),
			{Op: OpAnd, Dst: 4, Imm: 0x0F, UseImm: true},
			{Op: OpLsh, Dst: 4, Imm: 2, UseImm: true},
			{Op: OpAdd, Dst: 4, Imm: 16, UseImm: true},
			LdH(5, 4, 0), JEqImm(5, 53, 2),
			MovImm(0, ActPass), Exit(), MovImm(0, ActDrop), Exit(),
		}},
		{Name: "store", Insns: []Insn{
			MovImm(1, 0), {Op: OpStB, Dst: 1, Imm: 0xAA, UseImm: true}, LdB(2, 1, 0),
			MovImm(0, ActTx), Exit(),
		}},
		{Name: "fall-off", Insns: []Insn{MovImm(0, 0)}},
		{Name: "back-jump", Insns: []Insn{{Op: OpJmp, Off: -1}, Exit()}},
	}
}

// FuzzXDPVerify throws arbitrary instruction streams at the verifier:
// it must never panic, and a program it accepts must be safe to run —
// the interpreter must terminate (forward-only jumps) without panicking
// on any packet.
func FuzzXDPVerify(f *testing.F) {
	for _, p := range seedPrograms() {
		f.Add(encodeFuzzProgram(p))
	}
	pkt := make([]byte, 64)
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeFuzzProgram(data)
		if p == nil {
			return
		}
		if err := p.Verify(); err != nil {
			return
		}
		// Verified ⇒ runnable: bounded, no backward jumps, cannot fall
		// off the end.
		if _, err := p.Run(pkt); err == ErrNoExit {
			t.Fatalf("verified program fell off the end")
		}
	})
}

// FuzzXDPRun exercises the interpreter's checked-access unit with
// arbitrary verified programs against arbitrary packets: every
// out-of-bounds access must surface as ErrOutOfBounds + ActAborted,
// never as a slice panic, and in-bounds runs must return a terminal
// action.
func FuzzXDPRun(f *testing.F) {
	for _, p := range seedPrograms() {
		f.Add(encodeFuzzProgram(p), make([]byte, 14))
		f.Add(encodeFuzzProgram(p), []byte{})
		f.Add(encodeFuzzProgram(p), make([]byte, 64))
	}
	f.Fuzz(func(t *testing.T, data, pkt []byte) {
		p := decodeFuzzProgram(data)
		if p == nil || p.Verify() != nil {
			return
		}
		act, err := p.Run(pkt)
		if err != nil {
			if act != ActAborted {
				t.Fatalf("fault returned action %d, want ActAborted", act)
			}
			return
		}
		if act < 0 {
			t.Fatalf("negative action %d", act)
		}
	})
}
