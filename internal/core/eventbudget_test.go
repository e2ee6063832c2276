package core_test

import (
	"net/netip"
	"testing"

	"flexsfp/internal/apps"
	"flexsfp/internal/build"
	"flexsfp/internal/core"
	"flexsfp/internal/hls"
	"flexsfp/internal/netsim"
	"flexsfp/internal/trafficgen"
)

// TestCableEventBudget pins one kernel event per frame per hop on a cable
// wired like the benchmark's (generator → 10G wire → module): over a
// measurement window the simulator fires exactly one event per generator
// emit, one per wire delivery and one per engine verdict (one per admitted
// frame, Engine.Stats().In), and nothing else. A bookkeeping event added
// back to any layer — a link tx-done tick, an engine queue-slot release —
// breaks the equality. The xdp case saturates the engine's 64-slot input
// queue, where slot releases used to cost an event each.
func TestCableEventBudget(t *testing.T) {
	for _, tc := range []struct {
		name, app  string
		config     any
		saturating bool
	}{
		{"nat_64b", "nat", nil, false},
		{"xdp_64b", "xdp", apps.XDPConfig{Program: *apps.CanonicalXDPProgram()}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := netsim.New(42)
			mod, _, err := build.Module(sim, build.ModuleSpec{
				Name: "dut", DeviceID: 1, Shell: hls.TwoWayCore, App: tc.app, Config: tc.config,
			})
			if err != nil {
				t.Fatal(err)
			}
			var delivered uint64
			wire := netsim.NewLink(sim, 10_000_000_000, 0, func(b []byte) {
				delivered++
				mod.RxEdge(b)
			})
			mod.SetTx(core.PortEdge, trafficgen.PutBuffer)
			mod.SetTx(core.PortOptical, trafficgen.PutBuffer)
			gen := trafficgen.New(sim, trafficgen.Config{
				PPS:   10e9 / ((64 + 20) * 8), // 64 B line rate
				Sizes: []trafficgen.IMIXEntry{{Size: 64, Weight: 1}},
				Flows: 32, SrcIP: netip.AddrFrom4([4]byte{10, 1, 0, 1}),
			}, wire.Send)
			gen.Run(0)
			sim.RunFor(100 * netsim.Microsecond)

			verdicts := func() uint64 {
				st := mod.Engine().Stats()
				return st.Pass + st.Drop + st.Tx + st.Redirect + st.ToCPU
			}
			fired0, sent0, delivered0, verdicts0 := sim.Fired(), gen.Sent, delivered, verdicts()
			in0, drops0 := mod.Engine().Stats().In, mod.Engine().Stats().QueueDrop
			sim.RunFor(netsim.Millisecond)
			fired := sim.Fired() - fired0
			sent, hops, done := gen.Sent-sent0, delivered-delivered0, verdicts()-verdicts0
			in, drops := mod.Engine().Stats().In-in0, mod.Engine().Stats().QueueDrop-drops0

			if fired != sent+hops+done {
				t.Errorf("fired %d events for %d emits + %d wire deliveries + %d verdicts = %d",
					fired, sent, hops, done, sent+hops+done)
			}
			// Verdicts trail admissions by at most the frames in flight.
			if in < done || in-done > 128 {
				t.Errorf("%d frames admitted against %d verdicts in the window", in, done)
			}
			if tc.saturating != (drops > 0) {
				t.Errorf("queue drops = %d, saturating = %v", drops, tc.saturating)
			}
		})
	}
}
