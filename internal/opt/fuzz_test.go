package opt

import (
	"bytes"
	"encoding/binary"
	"testing"

	"flexsfp/internal/xdp"
)

// fuzzInsnWire mirrors the xdp fuzz wire format (14 raw bytes per
// instruction) so corpora transfer between the targets.
const fuzzInsnWire = 14

func decodeFuzzProgram(data []byte) *xdp.Program {
	n := len(data) / fuzzInsnWire
	if n == 0 || n > xdp.MaxInsns {
		return nil
	}
	insns := make([]xdp.Insn, n)
	for i := range insns {
		b := data[i*fuzzInsnWire : (i+1)*fuzzInsnWire]
		insns[i] = xdp.Insn{
			Op:     xdp.Op(b[0]),
			Dst:    xdp.Reg(b[1]),
			Src:    xdp.Reg(b[2]),
			Off:    int16(binary.BigEndian.Uint16(b[3:5])),
			Imm:    int64(binary.BigEndian.Uint64(b[5:13])),
			UseImm: b[13]&1 == 1,
		}
	}
	return &xdp.Program{Name: "fuzz", Insns: insns}
}

func encodeFuzzProgram(p *xdp.Program) []byte {
	out := make([]byte, 0, len(p.Insns)*fuzzInsnWire)
	for _, in := range p.Insns {
		var b [fuzzInsnWire]byte
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

// FuzzOptimizeEquivalence is the optimizer's soundness wall: for any
// verifiable program the fuzzer can construct, the optimized program
// must verify, must never be larger or schedule longer, and must behave
// identically to the original on the fuzzed packet — same action, same
// abort-or-not, same final packet bytes.
func FuzzOptimizeEquivalence(f *testing.F) {
	seeds := []*xdp.Program{
		dropUDP53(),
		{Name: "dup", Insns: []xdp.Insn{
			xdp.MovImm(1, 0), xdp.LdH(2, 1, 12), xdp.LdH(3, 1, 12),
			xdp.JNeImm(2, 0x0800, 2), xdp.MovImm(0, xdp.ActDrop), xdp.Exit(),
			xdp.MovImm(0, xdp.ActPass), xdp.Exit(),
		}},
		{Name: "mut", Insns: []xdp.Insn{
			xdp.MovImm(1, 0), {Op: xdp.OpStB, Dst: 1, Imm: 0x55, UseImm: true}, xdp.LdB(2, 1, 0),
			{Op: xdp.OpMov, Dst: 0, Src: 2}, xdp.Exit(),
		}},
	}
	for _, p := range seeds {
		f.Add(encodeFuzzProgram(p), make([]byte, 64))
		f.Add(encodeFuzzProgram(p), make([]byte, 3))
	}
	f.Fuzz(func(t *testing.T, data, pkt []byte) {
		p := decodeFuzzProgram(data)
		if p == nil || p.Verify() != nil {
			return
		}
		q, rep, err := OptimizeXDP(p, Options{})
		if err != nil {
			t.Fatalf("optimizing verified program: %v", err)
		}
		if len(q.Insns) > len(p.Insns) {
			t.Fatalf("optimizer grew the program: %d -> %d", len(p.Insns), len(q.Insns))
		}
		if rep.PackedCycles > rep.ScalarCycles {
			t.Fatalf("packing slower than scalar: %d > %d", rep.PackedCycles, rep.ScalarCycles)
		}
		a := append([]byte(nil), pkt...)
		b := append([]byte(nil), pkt...)
		actA, errA := p.Run(a)
		actB, errB := q.Run(b)
		if actA != actB || (errA == nil) != (errB == nil) {
			t.Fatalf("behavior diverged: %d/%v vs %d/%v", actA, errA, actB, errB)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("packet bytes diverged")
		}
	})
}
