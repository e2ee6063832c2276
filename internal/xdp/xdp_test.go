package xdp

import (
	"errors"
	"math"
	"net/netip"
	"testing"

	"flexsfp/internal/fpga"
	"flexsfp/internal/packet"
	"flexsfp/internal/ppe"
)

var (
	xMacA = packet.MustMAC("02:00:00:00:00:01")
	xMacB = packet.MustMAC("02:00:00:00:00:02")
	xIP1  = netip.MustParseAddr("10.0.0.1")
	xIP2  = netip.MustParseAddr("10.0.0.2")
)

func udpTo(t *testing.T, dport uint16) []byte {
	t.Helper()
	return packet.MustBuild(packet.Spec{
		SrcMAC: xMacA, DstMAC: xMacB, SrcIP: xIP1, DstIP: xIP2,
		SrcPort: 1000, DstPort: dport, PadTo: 64,
	})
}

// dropUDPPort builds the classic XDP filter: drop UDP datagrams to a
// given destination port, pass everything else. Assumes untagged IPv4.
func dropUDPPort(port int64) *Program {
	return &Program{
		Name: "drop-udp-port",
		Insns: []Insn{
			// r1 = ethertype; must be IPv4.
			LdH(1, 0, 12),
			JNeImm(1, 0x0800, 7), // not IPv4 → pass (jump to the pass tail)
			// r2 = IP protocol; must be UDP.
			LdB(2, 0, 23),
			JNeImm(2, 17, 5), // not UDP → pass
			// r3 = IHL in bytes = (pkt[14] & 0xF) * 4.
			LdB(3, 0, 14),
			Insn{Op: OpAnd, Dst: 3, Imm: 0x0f, UseImm: true},
			Insn{Op: OpLsh, Dst: 3, Imm: 2, UseImm: true},
			// r4 = dst port at pkt[14 + IHL + 2].
			LdH(4, 3, 16), // 14 (eth) + 2 (dport offset) folded into Off
			JEqImm(4, port, 2),
			// pass tail:
			MovImm(0, ActPass),
			Exit(),
			// drop tail:
			MovImm(0, ActDrop),
			Exit(),
		},
	}
}

func TestVerifyAcceptsFilter(t *testing.T) {
	if err := dropUDPPort(53).Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRunDropsAndPasses(t *testing.T) {
	p := dropUDPPort(53)
	act, err := p.Run(udpTo(t, 53))
	if err != nil || act != ActDrop {
		t.Errorf("port 53: act=%d err=%v, want drop", act, err)
	}
	act, err = p.Run(udpTo(t, 80))
	if err != nil || act != ActPass {
		t.Errorf("port 80: act=%d err=%v, want pass", act, err)
	}
	// Non-IPv4 (ARP) passes through the first branch.
	arp := make([]byte, 64)
	arp[12], arp[13] = 0x08, 0x06
	act, err = p.Run(arp)
	if err != nil || act != ActPass {
		t.Errorf("arp: act=%d err=%v", act, err)
	}
}

func TestRunStoreRewritesPacket(t *testing.T) {
	// TTL-decrement codelet (checksum left to the hardware unit).
	p := &Program{
		Name: "ttl-dec",
		Insns: []Insn{
			LdB(1, 0, 22), // r1 = TTL
			Insn{Op: OpSub, Dst: 1, Imm: 1, UseImm: true}, // r1--
			Insn{Op: OpStB, Dst: 2, Off: 22, Src: 1},      // pkt[r2+22] = r1 (r2=0)
			MovImm(0, ActPass),
			Exit(),
		},
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	pkt := udpTo(t, 80)
	before := pkt[22]
	if act, err := p.Run(pkt); err != nil || act != ActPass {
		t.Fatal(act, err)
	}
	if pkt[22] != before-1 {
		t.Errorf("TTL %d → %d, want decrement", before, pkt[22])
	}
}

func TestVerifierRejections(t *testing.T) {
	cases := []struct {
		name string
		prog Program
		want error
	}{
		{"empty", Program{}, ErrEmpty},
		{"too-long", Program{Insns: make([]Insn, MaxInsns+1)}, ErrTooLong},
		{"bad-reg", Program{Insns: []Insn{{Op: OpMov, Dst: 12}, Exit()}}, ErrBadReg},
		{"bad-op", Program{Insns: []Insn{{Op: opMax}, Exit()}}, ErrBadOp},
		{"back-jump", Program{Insns: []Insn{
			MovImm(0, 2), {Op: OpJmp, Off: -1}, Exit()}}, ErrBackJump},
		{"zero-jump", Program{Insns: []Insn{{Op: OpJmp, Off: 0}, Exit()}}, ErrBackJump},
		{"jump-range", Program{Insns: []Insn{{Op: OpJmp, Off: 10}, Exit()}}, ErrJumpRange},
		{"fall-off", Program{Insns: []Insn{MovImm(0, 2)}}, ErrNoExit},
		{"write-r10", Program{Insns: []Insn{MovImm(10, 1), Exit()}}, ErrWriteROReg},
		{"shift-range", Program{Insns: []Insn{
			{Op: OpLsh, Dst: 1, Imm: 99, UseImm: true}, Exit()}}, ErrShiftRange},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.prog.Verify(); !errors.Is(err, c.want) {
				t.Errorf("err = %v, want %v", err, c.want)
			}
		})
	}
}

func TestBoundsCheckedAccess(t *testing.T) {
	p := &Program{Name: "oob", Insns: []Insn{
		{Op: OpLdW, Dst: 1, Src: 0, Off: 1000}, // way past a 64B frame
		MovImm(0, ActPass),
		Exit(),
	}}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	act, err := p.Run(make([]byte, 64))
	if !errors.Is(err, ErrOutOfBounds) || act != ActAborted {
		t.Errorf("act=%d err=%v, want aborted/out-of-bounds", act, err)
	}
	// Negative effective address via register.
	neg := &Program{Name: "neg", Insns: []Insn{
		MovImm(1, -5),
		Insn{Op: OpLdB, Dst: 2, Src: 1, Off: 0},
		MovImm(0, ActPass),
		Exit(),
	}}
	if err := neg.Verify(); err != nil {
		t.Fatal(err)
	}
	if _, err := neg.Run(make([]byte, 64)); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("negative address: %v", err)
	}
	// Addresses whose end wraps past the int64 maximum: the check must not
	// overflow into an in-bounds verdict and index the packet.
	for _, in := range []Insn{LdH(2, 1, 0), {Op: OpLdW, Dst: 2, Src: 1, Off: -1}, {Op: OpStW, Dst: 1, Imm: 7, UseImm: true}} {
		wrap := &Program{Name: "wrap", Insns: []Insn{MovImm(1, math.MaxInt64), in, MovImm(0, ActPass), Exit()}}
		if err := wrap.Verify(); err != nil {
			t.Fatal(err)
		}
		if act, err := wrap.Run(make([]byte, 64)); !errors.Is(err, ErrOutOfBounds) || act != ActAborted {
			t.Errorf("%v at MaxInt64: act=%d err=%v, want aborted/out-of-bounds", in.Op, act, err)
		}
	}
}

func TestFrameLenRegister(t *testing.T) {
	p := &Program{Name: "len", Insns: []Insn{
		{Op: OpMov, Dst: 0, Src: RegFrameLen},
		Exit(),
	}}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	act, err := p.Run(make([]byte, 123))
	if err != nil || act != 123 {
		t.Errorf("act=%d err=%v", act, err)
	}
}

func TestALUOps(t *testing.T) {
	run := func(insns ...Insn) uint64 {
		p := &Program{Name: "alu", Insns: append(insns, Exit())}
		if err := p.Verify(); err != nil {
			t.Fatal(err)
		}
		act, err := p.Run(make([]byte, 64))
		if err != nil {
			t.Fatal(err)
		}
		return uint64(act)
	}
	if v := run(MovImm(0, 5), Insn{Op: OpAdd, Dst: 0, Imm: 3, UseImm: true}); v != 8 {
		t.Errorf("add = %d", v)
	}
	if v := run(MovImm(0, 5), Insn{Op: OpMul, Dst: 0, Imm: 3, UseImm: true}); v != 15 {
		t.Errorf("mul = %d", v)
	}
	if v := run(MovImm(0, 0xF0), Insn{Op: OpAnd, Dst: 0, Imm: 0x3C, UseImm: true}); v != 0x30 {
		t.Errorf("and = %d", v)
	}
	if v := run(MovImm(0, 1), Insn{Op: OpLsh, Dst: 0, Imm: 4, UseImm: true}); v != 16 {
		t.Errorf("lsh = %d", v)
	}
	if v := run(MovImm(0, 16), Insn{Op: OpRsh, Dst: 0, Imm: 4, UseImm: true}); v != 1 {
		t.Errorf("rsh = %d", v)
	}
	if v := run(MovImm(0, 6), Insn{Op: OpXor, Dst: 0, Imm: 3, UseImm: true}); v != 5 {
		t.Errorf("xor = %d", v)
	}
	if v := run(MovImm(0, 4), Insn{Op: OpOr, Dst: 0, Imm: 3, UseImm: true}); v != 7 {
		t.Errorf("or = %d", v)
	}
	if v := run(MovImm(0, 9), Insn{Op: OpSub, Dst: 0, Imm: 4, UseImm: true}); v != 5 {
		t.Errorf("sub = %d", v)
	}
	// Register-operand variant.
	if v := run(MovImm(1, 7), MovImm(0, 1), Insn{Op: OpAdd, Dst: 0, Src: 1}); v != 8 {
		t.Errorf("add reg = %d", v)
	}
	// JSet.
	if v := run(MovImm(1, 0b1010), MovImm(0, 1),
		Insn{Op: OpJSet, Dst: 1, Imm: 0b0010, UseImm: true, Off: 1},
		MovImm(0, 0)); v != 1 {
		t.Errorf("jset = %d", v)
	}
}

func TestOffloadToPPE(t *testing.T) {
	prog, err := Offload(dropUDPPort(53))
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name != "drop-udp-port" || prog.Stages < 1 {
		t.Errorf("prog = %+v", prog)
	}
	// Run through the handler with ppe contexts.
	ctx := &ppe.Ctx{Data: udpTo(t, 53), Dir: ppe.DirEdgeToOptical}
	if v := prog.Handler.HandlePacket(ctx); v != ppe.VerdictDrop {
		t.Errorf("verdict = %v, want drop", v)
	}
	ctx = &ppe.Ctx{Data: udpTo(t, 80), Dir: ppe.DirEdgeToOptical}
	if v := prog.Handler.HandlePacket(ctx); v != ppe.VerdictPass {
		t.Errorf("verdict = %v, want pass", v)
	}
	// Truncated garbage aborts → drop, never panics.
	ctx = &ppe.Ctx{Data: []byte{1, 2, 3}, Dir: ppe.DirEdgeToOptical}
	if v := prog.Handler.HandlePacket(ctx); v != ppe.VerdictDrop {
		t.Errorf("garbage verdict = %v, want drop (aborted)", v)
	}
}

func TestOffloadRejectsUnverifiable(t *testing.T) {
	if _, err := Offload(&Program{Name: "bad"}); !errors.Is(err, ErrEmpty) {
		t.Errorf("err = %v", err)
	}
}

func TestActionMapping(t *testing.T) {
	mk := func(action int64) *ppe.Program {
		prog, err := Offload(&Program{Name: "act", Insns: []Insn{MovImm(0, action), Exit()}})
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	cases := map[int64]ppe.Verdict{
		ActPass:     ppe.VerdictPass,
		ActDrop:     ppe.VerdictDrop,
		ActTx:       ppe.VerdictTx,
		ActRedirect: ppe.VerdictRedirect,
		ActAborted:  ppe.VerdictDrop,
		99:          ppe.VerdictDrop,
	}
	for act, want := range cases {
		ctx := &ppe.Ctx{Data: make([]byte, 64)}
		if v := mk(act).Handler.HandlePacket(ctx); v != want {
			t.Errorf("action %d → %v, want %v", act, v, want)
		}
	}
}

func TestEstimateResourcesFitsMPF200T(t *testing.T) {
	small := EstimateResources(dropUDPPort(53))
	big := EstimateResources(&Program{Insns: make([]Insn, MaxInsns)})
	if small.LUT4 >= big.LUT4 || small.LSRAM >= big.LSRAM {
		t.Error("estimate not monotone in program size")
	}
	// Even the maximal program plus the shell must fit the prototype.
	total := big.Add(fpga.Resources{LUT4: 22333, FF: 14224, USRAM: 242, LSRAM: 4})
	if !total.FitsIn(fpga.MPF200T.Capacity) {
		t.Errorf("maximal XDP program does not fit: %v", total)
	}
}

func TestOpString(t *testing.T) {
	if OpMov.String() != "mov" || OpExit.String() != "exit" {
		t.Error("op names wrong")
	}
	if Op(200).String() != "op(200)" {
		t.Error("unknown op name wrong")
	}
}
