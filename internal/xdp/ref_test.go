package xdp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"flexsfp/internal/runner"
)

// runRef is the reference interpreter Run is checked against: the
// earlier body of Program.Run, kept line for line except for one fix it
// shares with Run: its bounds checks compare at with len-size, so an
// address within size bytes of the int64 maximum cannot wrap past them.
func runRef(p *Program, pkt []byte) (action int, err error) {
	var r [NumRegs]uint64
	r[RegFrameLen] = uint64(len(pkt))
	pc := 0
	for pc < len(p.Insns) {
		in := p.Insns[pc]
		operand := func() uint64 {
			if in.UseImm {
				return uint64(in.Imm)
			}
			return r[in.Src]
		}
		switch in.Op {
		case OpMov:
			r[in.Dst] = operand()
		case OpAdd:
			r[in.Dst] += operand()
		case OpSub:
			r[in.Dst] -= operand()
		case OpMul:
			r[in.Dst] *= operand()
		case OpAnd:
			r[in.Dst] &= operand()
		case OpOr:
			r[in.Dst] |= operand()
		case OpXor:
			r[in.Dst] ^= operand()
		case OpLsh:
			r[in.Dst] <<= operand() & 63
		case OpRsh:
			r[in.Dst] >>= operand() & 63
		case OpLdB, OpLdH, OpLdW:
			size := map[Op]int{OpLdB: 1, OpLdH: 2, OpLdW: 4}[in.Op]
			at := int64(r[in.Src]) + int64(in.Off)
			if at < 0 || at > int64(len(pkt))-int64(size) {
				return ActAborted, fmt.Errorf("%w: load %d at %d (len %d)", ErrOutOfBounds, size, at, len(pkt))
			}
			var v uint64
			for k := 0; k < size; k++ {
				v = v<<8 | uint64(pkt[at+int64(k)])
			}
			r[in.Dst] = v
		case OpStB, OpStH, OpStW:
			size := map[Op]int{OpStB: 1, OpStH: 2, OpStW: 4}[in.Op]
			at := int64(r[in.Dst]) + int64(in.Off)
			if at < 0 || at > int64(len(pkt))-int64(size) {
				return ActAborted, fmt.Errorf("%w: store %d at %d (len %d)", ErrOutOfBounds, size, at, len(pkt))
			}
			v := operand()
			for k := size - 1; k >= 0; k-- {
				pkt[at+int64(k)] = byte(v)
				v >>= 8
			}
		case OpJmp:
			// Displacements are relative to the next instruction, as in
			// eBPF: pc' = pc + 1 + off.
			pc += int(in.Off) + 1
			continue
		case OpJEq, OpJNe, OpJGt, OpJLt, OpJSet:
			taken := false
			a, b := r[in.Dst], operand()
			switch in.Op {
			case OpJEq:
				taken = a == b
			case OpJNe:
				taken = a != b
			case OpJGt:
				taken = a > b
			case OpJLt:
				taken = a < b
			case OpJSet:
				taken = a&b != 0
			}
			if taken {
				pc += int(in.Off) + 1
				continue
			}
		case OpExit:
			// BPF programs return u32: the exit value is r0's low 32
			// bits, never a sign-extended 64-bit register image (a
			// hostile program could otherwise exit with a negative
			// "action").
			return int(uint32(r[0])), nil
		}
		pc++
	}
	return ActAborted, ErrNoExit
}

// errClass reduces a Run error to what callers may match on.
func errClass(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrOutOfBounds):
		return ErrOutOfBounds
	case errors.Is(err, ErrNoExit):
		return ErrNoExit
	}
	return err
}

// checkRunVsRef runs p over two copies of pkt, one with Run and one with
// runRef, and fails unless the action, the error class and the final
// packet bytes all agree.
func checkRunVsRef(t *testing.T, p *Program, pkt []byte) {
	t.Helper()
	got := bytes.Clone(pkt)
	want := bytes.Clone(pkt)
	act, err := p.Run(got)
	refAct, refErr := runRef(p, want)
	if act != refAct || errClass(err) != errClass(refErr) {
		t.Fatalf("%d-byte packet: Run = %d, %v; runRef = %d, %v\nprogram: %+v",
			len(pkt), act, err, refAct, refErr, p.Insns)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%d-byte packet: Run left % x, runRef % x\nprogram: %+v", len(pkt), got, want, p.Insns)
	}
}

// FuzzRunVsRef is the interpreter's differential wall: on any verified
// program and any packet, Run must agree with runRef.
func FuzzRunVsRef(f *testing.F) {
	for _, p := range seedPrograms() {
		for _, n := range []int{0, 13, 64} {
			f.Add(encodeFuzzProgram(p), make([]byte, n))
		}
	}
	f.Fuzz(func(t *testing.T, data, pkt []byte) {
		p := decodeFuzzProgram(data)
		if p == nil || p.Verify() != nil {
			return
		}
		checkRunVsRef(t, p, pkt)
	})
}

// refImms are the immediates the property test draws from: packet
// offsets and lengths, the canonical filter's constants, shift amounts,
// and values that reach the sign, 32-bit and int64 edges.
var refImms = []int64{
	0, 1, 2, 3, 4, 12, 13, 14, 17, 23, 53, 63, 64, 79, 80,
	0x0800, -1, -4, 1 << 31, 1 << 32, 1<<63 - 1, -1 << 63,
}

// randWireProgram draws the fuzz wire encoding of an n-instruction
// program ending in exit. Fields are biased so that a useful share of
// draws verifies: registers and opcodes mostly in range, jumps mostly
// forward and inside the program, memory offsets around a short frame.
func randWireProgram(rng *rand.Rand, n int) []byte {
	data := make([]byte, 0, n*insnWire)
	for i := 0; i < n; i++ {
		var b [insnWire]byte
		op := Op(rng.Intn(int(opMax)))
		if i == n-1 {
			op = OpExit
		}
		b[0] = byte(op)
		b[1] = byte(rng.Intn(NumRegs))
		b[2] = byte(rng.Intn(NumRegs))
		var off int
		switch op {
		case OpJmp, OpJEq, OpJNe, OpJGt, OpJLt, OpJSet:
			off = 1 + rng.Intn(max(n-i-1, 1))
		default:
			off = rng.Intn(96) - 8
		}
		binary.BigEndian.PutUint16(b[3:5], uint16(int16(off)))
		imm := refImms[rng.Intn(len(refImms))]
		if rng.Intn(4) == 0 {
			imm = int64(rng.Intn(1<<16)) << (rng.Intn(4) * 16)
		}
		binary.BigEndian.PutUint64(b[5:13], uint64(imm))
		b[13] = byte(rng.Intn(2))
		data = append(data, b[:]...)
	}
	return data
}

// TestRunMatchesRef is FuzzRunVsRef's seeded tier-1 form: programs drawn
// through the fuzz wire decoder, the ones that verify run on packets of
// every length from 0 to 80 bytes.
func TestRunMatchesRef(t *testing.T) {
	rng := runner.NewRand(31)
	pkt := make([]byte, 80)
	var programs []*Program
	for _, p := range seedPrograms() {
		if p.Verify() == nil {
			programs = append(programs, p)
		}
	}
	for tries := 0; len(programs) < 1500 && tries < 100000; tries++ {
		p := decodeFuzzProgram(randWireProgram(rng, 2+rng.Intn(23)))
		if p.Verify() == nil {
			programs = append(programs, p)
		}
	}
	if len(programs) < 1500 {
		t.Fatalf("only %d verified programs drawn", len(programs))
	}
	for _, p := range programs {
		rng.Read(pkt)
		for n := 0; n <= len(pkt); n++ {
			checkRunVsRef(t, p, pkt[:n])
		}
	}
}
