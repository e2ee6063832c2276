package opt

import (
	"bytes"
	"math/rand"
	"testing"

	"flexsfp/internal/xdp"
)

// assertEquiv runs p and q over the same packets and demands identical
// actions, identical abort behavior, and identical final packet bytes.
func assertEquiv(t *testing.T, p, q *xdp.Program, pkts [][]byte) {
	t.Helper()
	for i, pkt := range pkts {
		a := append([]byte(nil), pkt...)
		b := append([]byte(nil), pkt...)
		actA, errA := p.Run(a)
		actB, errB := q.Run(b)
		if actA != actB || (errA == nil) != (errB == nil) {
			t.Fatalf("pkt %d: action %d/%v vs %d/%v", i, actA, errA, actB, errB)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("pkt %d: packet bytes diverge", i)
		}
	}
}

// corpus returns deterministic random packets spanning the sizes that
// exercise bounds checks around typical header offsets.
func corpus(seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	pkts := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		size := rng.Intn(128)
		if i%7 == 0 {
			size = rng.Intn(16) // short frames provoke aborts
		}
		b := make([]byte, size)
		rng.Read(b)
		pkts = append(pkts, b)
	}
	return pkts
}

func mustOpt(t *testing.T, p *xdp.Program) (*xdp.Program, XDPReport) {
	t.Helper()
	q, rep, err := OptimizeXDP(p, Options{})
	if err != nil {
		t.Fatalf("OptimizeXDP(%q): %v", p.Name, err)
	}
	if err := q.Verify(); err != nil {
		t.Fatalf("optimized %q unverifiable: %v", p.Name, err)
	}
	return q, rep
}

func TestFoldDupLoadsAndDeadWrites(t *testing.T) {
	p := &xdp.Program{Name: "dup-loads", Insns: []xdp.Insn{
		xdp.MovImm(1, 0),
		xdp.LdH(2, 1, 12), // ethertype
		xdp.LdH(3, 1, 12), // duplicate → mov r3, r2 → dead
		xdp.JNeImm(2, 0x0800, 2),
		xdp.MovImm(0, xdp.ActDrop),
		xdp.Exit(),
		xdp.MovImm(0, xdp.ActPass),
		xdp.Exit(),
	}}
	q, rep := mustOpt(t, p)
	if rep.FoldedLoads != 1 {
		t.Fatalf("FoldedLoads = %d, want 1", rep.FoldedLoads)
	}
	if rep.DeadWrites < 1 {
		t.Fatalf("DeadWrites = %d, want >= 1 (the folded copy is dead)", rep.DeadWrites)
	}
	if rep.InsnsAfter >= rep.InsnsBefore {
		t.Fatalf("insns %d -> %d, want shrink", rep.InsnsBefore, rep.InsnsAfter)
	}
	assertEquiv(t, p, q, corpus(1, 500))
}

func TestDupLoadKeptWhenPacketStored(t *testing.T) {
	p := &xdp.Program{Name: "store-barrier", Insns: []xdp.Insn{
		xdp.MovImm(1, 0),
		xdp.LdB(2, 1, 0),
		{Op: xdp.OpStB, Dst: 1, Imm: 0xFF, UseImm: true}, // mutates the byte the next load reads
		xdp.LdB(3, 1, 0), // NOT a duplicate: must reload 0xFF
		xdp.MovImm(0, 0),
		xdp.Insn{Op: xdp.OpAdd, Dst: 0, Src: 3},
		xdp.Exit(),
	}}
	q, rep := mustOpt(t, p)
	if rep.FoldedLoads != 0 {
		t.Fatalf("folded a load across a packet store")
	}
	assertEquiv(t, p, q, corpus(2, 500))
}

func TestDeadLoadKeptForAbortSemantics(t *testing.T) {
	// The load result is never read, but the load's bounds check aborts
	// short frames — deleting it would turn aborts into passes.
	p := &xdp.Program{Name: "dead-load", Insns: []xdp.Insn{
		xdp.MovImm(1, 0),
		{Op: xdp.OpLdW, Dst: 2, Src: 1, Off: 60}, // r2 unread; aborts frames shorter than 64
		xdp.MovImm(0, xdp.ActPass),
		xdp.Exit(),
	}}
	q, rep := mustOpt(t, p)
	if rep.InsnsAfter != rep.InsnsBefore {
		t.Fatalf("insns %d -> %d: a faulting load was deleted", rep.InsnsBefore, rep.InsnsAfter)
	}
	assertEquiv(t, p, q, corpus(3, 500))
}

func TestElimUnreachableAndNoopJump(t *testing.T) {
	p := &xdp.Program{Name: "unreachable", Insns: []xdp.Insn{
		xdp.MovImm(0, xdp.ActPass),
		{Op: xdp.OpJmp, Off: 2}, // over two dead movs
		xdp.MovImm(0, xdp.ActDrop),
		xdp.MovImm(0, xdp.ActAborted),
		xdp.Exit(),
	}}
	q, rep := mustOpt(t, p)
	// The two dead movs, plus the jump itself once its whole span dies
	// and it becomes a fall-through.
	if rep.Unreachable != 3 {
		t.Fatalf("Unreachable = %d, want 3", rep.Unreachable)
	}
	if len(q.Insns) != 2 {
		t.Fatalf("optimized to %d insns, want 2 (mov, exit): %+v", len(q.Insns), q.Insns)
	}
	assertEquiv(t, p, q, corpus(4, 200))
}

func TestThreadJumpChains(t *testing.T) {
	// The trampoline at 7 jumps over a live block (the tx path reached
	// by the second branch), so only threading — not unreachable-code
	// elimination — can bypass it; once threaded, the trampoline itself
	// goes unreachable and dies next round.
	p := &xdp.Program{Name: "jump-chain", Insns: []xdp.Insn{
		xdp.MovImm(1, 0),
		xdp.LdB(2, 1, 0),
		xdp.JEqImm(2, 1, 4), // → 7, the trampoline
		xdp.LdB(3, 1, 1),
		xdp.JEqImm(3, 2, 3), // → 8, the tx block
		xdp.MovImm(0, xdp.ActPass),
		xdp.Exit(),
		{Op: xdp.OpJmp, Off: 2}, // → 10, the drop block
		xdp.MovImm(0, xdp.ActTx),
		xdp.Exit(),
		xdp.MovImm(0, xdp.ActDrop),
		xdp.Exit(),
	}}
	q, rep := mustOpt(t, p)
	if rep.ThreadedJumps < 1 {
		t.Fatalf("ThreadedJumps = %d, want >= 1", rep.ThreadedJumps)
	}
	if rep.Unreachable != 1 { // the threaded-past trampoline
		t.Fatalf("Unreachable = %d, want 1", rep.Unreachable)
	}
	if len(q.Insns) != len(p.Insns)-1 {
		t.Fatalf("optimized to %d insns, want %d", len(q.Insns), len(p.Insns)-1)
	}
	assertEquiv(t, p, q, corpus(5, 500))
}

func TestSelfCopyEliminated(t *testing.T) {
	p := &xdp.Program{Name: "self-copy", Insns: []xdp.Insn{
		xdp.MovImm(0, xdp.ActPass),
		{Op: xdp.OpMov, Dst: 3, Src: 3}, // no-op
		xdp.Exit(),
	}}
	q, rep := mustOpt(t, p)
	if len(q.Insns) != 2 || rep.DeadWrites != 1 {
		t.Fatalf("self-copy not eliminated: %d insns, %d dead writes", len(q.Insns), rep.DeadWrites)
	}
	assertEquiv(t, p, q, corpus(6, 100))
}

func TestOptimizeXDPIdempotent(t *testing.T) {
	p := &xdp.Program{Name: "idem", Insns: []xdp.Insn{
		xdp.MovImm(1, 0),
		xdp.LdH(2, 1, 12),
		xdp.LdH(3, 1, 12),
		xdp.MovImm(4, 9), // dead
		xdp.JEqImm(2, 0x86DD, 2),
		xdp.MovImm(0, xdp.ActPass),
		xdp.Exit(),
		xdp.MovImm(0, xdp.ActDrop),
		xdp.Exit(),
	}}
	q1, _ := mustOpt(t, p)
	q2, rep2 := mustOpt(t, q1)
	if rep2.InsnsBefore != rep2.InsnsAfter ||
		rep2.Unreachable+rep2.DeadWrites+rep2.FoldedLoads+rep2.ThreadedJumps != 0 {
		t.Fatalf("second pass still changed the program: %+v", rep2)
	}
	if len(q2.Insns) != len(q1.Insns) {
		t.Fatalf("not idempotent: %d vs %d insns", len(q1.Insns), len(q2.Insns))
	}
}

func TestOptimizeXDPRejectsUnverifiable(t *testing.T) {
	p := &xdp.Program{Name: "bad", Insns: []xdp.Insn{xdp.MovImm(0, 0)}} // falls off end
	if _, _, err := OptimizeXDP(p, Options{}); err == nil {
		t.Fatal("want verification error")
	}
}

func TestScheduleCyclesIndependentPacks(t *testing.T) {
	p := &xdp.Program{Name: "wide", Insns: []xdp.Insn{
		xdp.MovImm(1, 1),
		xdp.MovImm(2, 2),
		xdp.MovImm(3, 3),
		xdp.MovImm(0, xdp.ActPass),
		xdp.Exit(),
	}}
	if got := scheduleCycles(p.Insns, 4); got != 2 {
		t.Fatalf("width-4 schedule = %d cycles, want 2", got)
	}
	if got := scheduleCycles(p.Insns, 1); got != 5 {
		t.Fatalf("width-1 schedule = %d cycles, want 5 (scalar)", got)
	}
}

func TestScheduleCyclesRAWSerializes(t *testing.T) {
	p := &xdp.Program{Name: "chain", Insns: []xdp.Insn{
		xdp.MovImm(0, 1),
		{Op: xdp.OpAdd, Dst: 0, Imm: 1, UseImm: true}, // RAW on r0
		{Op: xdp.OpAdd, Dst: 0, Imm: 1, UseImm: true},
		xdp.Exit(),
	}}
	// Each add reads the r0 the previous cycle wrote, and exit reads the
	// final r0 — four serial cycles even with four lanes.
	if got := scheduleCycles(p.Insns, 4); got != 4 {
		t.Fatalf("dependent chain schedule = %d cycles, want 4", got)
	}
}

func TestScheduleCyclesMemOrdering(t *testing.T) {
	p := &xdp.Program{Name: "mem", Insns: []xdp.Insn{
		xdp.MovImm(1, 0),
		xdp.LdB(2, 1, 0), // RAW on r1: second cycle
		{Op: xdp.OpStB, Dst: 1, Imm: 7, UseImm: true}, // store after load: third cycle
		xdp.LdB(3, 1, 0), // load after store: fourth cycle (exit shares it)
		xdp.Exit(),
	}}
	if got := scheduleCycles(p.Insns, 4); got != 4 {
		t.Fatalf("mem schedule = %d cycles, want 4", got)
	}
}

func TestOptimizeXDPRandomizedEquivalence(t *testing.T) {
	// Cross-check every hand-built test program once more on a bigger
	// corpus; the fuzz target generalizes this to arbitrary programs.
	progs := []*xdp.Program{
		dropUDP53(),
	}
	for _, p := range progs {
		q, rep := mustOpt(t, p)
		if rep.PackedCycles > rep.ScalarCycles {
			t.Fatalf("%s: packing made it slower: %d > %d", p.Name, rep.PackedCycles, rep.ScalarCycles)
		}
		assertEquiv(t, p, q, corpus(7, 2000))
	}
}

// dropUDP53 is the examples/xdp-offload program: parse Ethernet/IPv4,
// drop UDP destination port 53. Shared with the fuzz seed corpus.
func dropUDP53() *xdp.Program {
	return &xdp.Program{Name: "drop-udp-53", Insns: []xdp.Insn{
		xdp.MovImm(1, 0),
		xdp.LdH(2, 1, 12),        // ethertype
		xdp.JNeImm(2, 0x0800, 8), // not IPv4 → pass
		xdp.LdB(3, 1, 23),        // IPv4 protocol
		xdp.JNeImm(3, 17, 6),     // not UDP → pass
		xdp.LdB(4, 1, 14),        // IHL
		{Op: xdp.OpAnd, Dst: 4, Imm: 0x0F, UseImm: true},
		{Op: xdp.OpLsh, Dst: 4, Imm: 2, UseImm: true},
		{Op: xdp.OpAdd, Dst: 4, Imm: 16, UseImm: true}, // + eth + dport offset
		xdp.LdH(5, 4, 0),     // UDP dst port
		xdp.JEqImm(5, 53, 2), // port 53 → drop
		xdp.MovImm(0, xdp.ActPass),
		xdp.Exit(),
		xdp.MovImm(0, xdp.ActDrop),
		xdp.Exit(),
	}}
}
