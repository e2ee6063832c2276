package apps

import (
	"testing"

	"flexsfp/internal/ppe"
)

// The xdp handler is alloc-free on every exit, an aborted frame
// included: a flood of runts must not make the cable allocate.
func TestXDPHandlerZeroAlloc(t *testing.T) {
	a := NewXDPApp()
	if err := a.Configure(mustJSON(t, XDPConfig{Program: *CanonicalXDPProgram()})); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		frame   []byte
		verdict ppe.Verdict
		counter int
	}{
		{"pass", udpFrame(t, ipInt, ipSrv, 1000, 80), ppe.VerdictPass, XDPPass},
		{"drop", udpFrame(t, ipInt, ipSrv, 1000, 53), ppe.VerdictDrop, XDPDrop},
		{"runt", make([]byte, 10), ppe.VerdictDrop, XDPAborted},
	}
	ctx := &ppe.Ctx{Dir: ppe.DirEdgeToOptical}
	for _, c := range cases {
		var before [xdpCounters]uint64
		for i := range before {
			before[i], _ = a.ctr.Read(i)
		}
		var v ppe.Verdict
		calls := 0
		allocs := testing.AllocsPerRun(200, func() {
			ctx.Data = c.frame
			v = a.prog.Handler.HandlePacket(ctx)
			calls++
		})
		if allocs != 0 {
			t.Errorf("%s: handler allocates %.1f/op, want 0", c.name, allocs)
		}
		if v != c.verdict {
			t.Errorf("%s: verdict %v, want %v", c.name, v, c.verdict)
		}
		for i := range before {
			want := before[i]
			if i == c.counter {
				want += uint64(calls)
			}
			if got, _ := a.ctr.Read(i); got != want {
				t.Errorf("%s: counter %d = %d, want %d", c.name, i, got, want)
			}
		}
	}
}
