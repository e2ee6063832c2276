package flexsfp

// Cross-package integration tests: full topologies with hosts, fibers,
// switches and modules built by build.Module and wired through the event
// simulator.

import (
	"testing"

	"flexsfp/internal/apps"
	"flexsfp/internal/bitstream"
	"flexsfp/internal/build"
	"flexsfp/internal/core"
	"flexsfp/internal/hls"
	"flexsfp/internal/mgmt"
	"flexsfp/internal/netsim"
	"flexsfp/internal/packet"
	"flexsfp/internal/switchsim"
	"flexsfp/internal/trafficgen"
)

const igTenGig = 10_000_000_000

// TestEndToEndPathThroughFibers wires host ↔ FlexSFP ↔ fiber ↔ FlexSFP ↔
// host and verifies symmetric NAT translation across the span with real
// link serialization.
func TestEndToEndPathThroughFibers(t *testing.T) {
	sim := netsim.New(1)

	left, _, err := build.Module(sim, build.ModuleSpec{
		Name: "left", DeviceID: 1, Shell: hls.TwoWayCore, App: "nat",
		Config: apps.NATConfig{
			Direction: "edge-to-optical",
			Mappings:  []apps.NATMapping{{Internal: "192.168.0.2", External: "203.0.113.2"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	right, _, err := build.Module(sim, build.ModuleSpec{
		Name: "right", DeviceID: 2, Shell: hls.TwoWayCore, App: "sanitize",
		Config: apps.SanitizeConfig{VerifyChecksums: true},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Fiber between the two optical sides.
	lr := netsim.NewLink(sim, igTenGig, 500, right.RxOptical)
	rl := netsim.NewLink(sim, igTenGig, 500, left.RxOptical)
	left.SetTx(core.PortOptical, func(b []byte) { lr.Send(b) })
	right.SetTx(core.PortOptical, func(b []byte) { rl.Send(b) })

	// Hosts on the edges.
	var rightHostRx [][]byte
	right.SetTx(core.PortEdge, func(b []byte) { rightHostRx = append(rightHostRx, b) })
	var leftHostRx [][]byte
	left.SetTx(core.PortEdge, func(b []byte) { leftHostRx = append(leftHostRx, b) })

	frame := packet.MustBuild(packet.Spec{
		SrcMAC: packet.MustMAC("02:00:00:00:00:11"),
		DstMAC: packet.MustMAC("02:00:00:00:00:22"),
		SrcIP:  mustAddr("192.168.0.2"), DstIP: mustAddr("198.51.100.9"),
		SrcPort: 5000, DstPort: 443, PadTo: 128,
	})
	left.RxEdge(frame)
	sim.Run()

	if len(rightHostRx) != 1 {
		t.Fatalf("right host got %d frames", len(rightHostRx))
	}
	pkt := packet.NewPacket(rightHostRx[0], packet.LayerTypeEthernet)
	ip := pkt.Layer(packet.LayerTypeIPv4).(*packet.IPv4)
	if ip.SrcIP != mustAddr("203.0.113.2") {
		t.Errorf("src after NAT = %v", ip.SrcIP)
	}
	// The sanitizer verified the NAT-updated checksum: no drops.
	if d := right.Engine().Stats().Drop; d != 0 {
		t.Errorf("sanitizer dropped %d frames (checksum fixup broken?)", d)
	}
}

// TestOTAUnderTraffic verifies the §4.2 reprogramming FSM under load:
// frames flowing during a reboot are dropped and counted, then service
// resumes with the new app.
func TestOTAUnderTraffic(t *testing.T) {
	sim := netsim.New(2)
	mod, _, err := build.Module(sim, build.ModuleSpec{
		Name: "dut", DeviceID: 3, Shell: hls.TwoWayCore, App: "nat",
	})
	if err != nil {
		t.Fatal(err)
	}
	var delivered uint64
	mod.SetTx(core.PortOptical, func([]byte) { delivered++ })
	mod.SetTx(core.PortEdge, func([]byte) {})
	agent := mgmt.NewAgent(mod)
	client := mgmt.NewClient(mgmt.TransportFunc(func(req []byte) ([]byte, error) {
		return agent.Handle(req), nil
	}))

	// Continuous traffic at 100 kpps.
	gen := trafficgen.New(sim, trafficgen.Config{PPS: 100_000},
		func(b []byte) bool { mod.RxEdge(b); return true })
	gen.Run(0)

	// Mid-stream, push an ACL image and reboot into it.
	sim.ScheduleDetached(10*netsim.Millisecond, func() {
		app, _ := apps.NewRegistry().New("acl")
		d, cerr := hls.Compile(app.Program(), hls.Options{
			ClockHz: build.BaseClockHz, DatapathBits: build.BaseDatapathBits,
		})
		if cerr != nil {
			t.Error(cerr)
			return
		}
		enc, _ := d.Bitstream.Encode()
		if perr := client.PushBitstream(bitstream.Sign(enc, build.DefaultAuthKey), 2, true); perr != nil {
			t.Error(perr)
		}
	})
	sim.RunFor(100 * netsim.Millisecond)
	gen.Stop()
	sim.Run()

	if !mod.Running() || mod.ActiveSlot() != 2 {
		t.Fatalf("running=%v slot=%d", mod.Running(), mod.ActiveSlot())
	}
	st := mod.Stats()
	// Reboot outage ≈ 30 ms of 100 kpps ≈ 3000 frames dropped.
	if st.RebootDrops < 2000 || st.RebootDrops > 4500 {
		t.Errorf("reboot drops = %d, want ≈3000", st.RebootDrops)
	}
	// Service resumed: traffic delivered after the reboot window.
	if delivered == 0 || delivered+st.RebootDrops < gen.Sent-100 {
		t.Errorf("delivered %d + drops %d vs sent %d", delivered, st.RebootDrops, gen.Sent)
	}
	if mod.App().Program().Name != "acl" {
		t.Errorf("app after OTA = %s", mod.App().Program().Name)
	}
}

// TestMonitorDetectsMicroburstInTopology drives a microburst through a
// monitor-equipped module inside the simulator.
func TestMonitorDetectsMicroburstInTopology(t *testing.T) {
	sim := netsim.New(4)
	mod, _, err := build.Module(sim, build.ModuleSpec{
		Name: "probe", DeviceID: 5, Shell: hls.TwoWayCore, App: "monitor",
		Config: apps.MonitorConfig{BurstFrames: 50, BurstWindowNs: 10_000, GapNs: 5_000_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	mod.SetTx(core.PortOptical, func([]byte) {})
	mod.SetTx(core.PortEdge, func([]byte) {})

	// Background traffic at 1 Mpps (1 µs spacing: never 50 frames/10 µs).
	bg := trafficgen.New(sim, trafficgen.Config{PPS: 1_000_000},
		func(b []byte) bool { mod.RxEdge(b); return true })
	bg.Run(0)

	// A microburst at t = 5 ms: 100 frames back to back at line rate.
	sim.ScheduleDetached(5*netsim.Millisecond, func() {
		for i := 0; i < 100; i++ {
			i := i
			sim.ScheduleDetached(netsim.Duration(i*68), func() {
				mod.RxEdge(packet.MustBuild(packet.Spec{
					SrcMAC: packet.MustMAC("02:00:00:00:00:31"),
					DstMAC: packet.MustMAC("02:00:00:00:00:32"),
					SrcIP:  mustAddr("10.9.9.9"), DstIP: mustAddr("10.8.8.8"),
					SrcPort: 7, DstPort: 8, PadTo: 64,
				}))
			})
		}
	})
	// A link flap: silence from 8 ms to 20 ms.
	sim.ScheduleDetached(8*netsim.Millisecond, func() { bg.Stop() })
	sim.RunFor(20 * netsim.Millisecond)
	bg2 := trafficgen.New(sim, trafficgen.Config{PPS: 1_000_000},
		func(b []byte) bool { mod.RxEdge(b); return true })
	bg2.Run(100)
	sim.RunFor(5 * netsim.Millisecond)

	events, _ := mod.App().State().Counters("events")
	bursts, _ := events.Read(apps.MonMicrobursts)
	flaps, _ := events.Read(apps.MonFlaps)
	if bursts == 0 {
		t.Error("microburst not detected")
	}
	if flaps == 0 {
		t.Error("link flap not detected")
	}
}

// TestRetrofitFleetOnSwitch provisions a 8-port switch fully populated
// with FlexSFPs managed over in-band control, and checks fleet-wide stats
// collection — the "centralized orchestration across a fleet" of §4.1.
func TestRetrofitFleetOnSwitch(t *testing.T) {
	sim := netsim.New(5)
	sw := switchsim.New(sim, 8)
	var mods []*core.Module
	var hosts []*switchsim.Host
	for i := 0; i < 8; i++ {
		mod, _, err := build.Module(sim, build.ModuleSpec{
			Name: "port", DeviceID: uint32(100 + i), Shell: hls.TwoWayCore, App: "netflow",
		})
		if err != nil {
			t.Fatal(err)
		}
		mgmt.NewAgent(mod)
		sw.Cage(i).Insert(mod)
		h := switchsim.NewHost("h", packet.MAC{2, 0, 0, 0, 9, byte(i + 1)})
		switchsim.Fiber(sim, sw.Cage(i), h, igTenGig, 100)
		mods = append(mods, mod)
		hosts = append(hosts, h)
	}
	// Cross traffic between hosts 0↔1.
	for i := 0; i < 10; i++ {
		hosts[0].Send(packet.MustBuild(packet.Spec{
			SrcMAC: hosts[0].MAC, DstMAC: hosts[1].MAC,
			SrcIP: mustAddr("10.0.0.1"), DstIP: mustAddr("10.0.0.2"),
			SrcPort: uint16(1000 + i), DstPort: 80, PadTo: 64,
		}))
	}
	sim.Run()
	if hosts[1].RxFrames != 10 {
		t.Fatalf("h1 rx = %d", hosts[1].RxFrames)
	}

	// Fleet sweep: ping every module in-band through its control frame
	// path (simulating the orchestrator reaching each port).
	alive := 0
	for _, mod := range mods {
		var resp []byte
		prevTx := captureControl(mod, &resp)
		req := mgmt.Message{Type: mgmt.MsgPing, ReqID: 9}.Encode()
		buf := packet.NewSerializeBuffer()
		pl := packet.Payload(req)
		_ = packet.SerializeLayers(buf, packet.SerializeOptions{},
			&packet.Ethernet{SrcMAC: packet.MAC{2, 0xee, 0, 0, 0, 1}, DstMAC: mod.MAC(),
				EtherType: packet.EtherTypeFlexControl}, &pl)
		mod.RxEdge(append([]byte(nil), buf.Bytes()...))
		if resp != nil {
			if msg, err := mgmt.DecodeMessage(resp); err == nil && msg.Type == mgmt.MsgOK {
				alive++
			}
		}
		mod.SetTx(core.PortEdge, prevTx)
	}
	if alive != 8 {
		t.Errorf("fleet sweep reached %d of 8 modules", alive)
	}
}

// captureControl temporarily redirects a module's edge TX to capture one
// control response payload; returns a replacement sink.
func captureControl(mod *core.Module, out *[]byte) func([]byte) {
	sink := func([]byte) {}
	mod.SetTx(core.PortEdge, func(b []byte) {
		var eth packet.Ethernet
		if eth.DecodeFromBytes(b) == nil && eth.EtherType == packet.EtherTypeFlexControl {
			*out = append([]byte(nil), eth.LayerPayload()...)
		}
	})
	return sink
}

// TestStandardVsFlexLatency quantifies the added in-cable processing
// latency against a plain SFP — the §6 "latency overhead" question.
func TestStandardVsFlexLatency(t *testing.T) {
	measure := func(useFlex bool) netsim.Duration {
		sim := netsim.New(6)
		var rx netsim.Time
		frame := packet.MustBuild(packet.Spec{
			SrcMAC: packet.MustMAC("02:00:00:00:00:41"),
			DstMAC: packet.MustMAC("02:00:00:00:00:42"),
			SrcIP:  mustAddr("10.0.0.1"), DstIP: mustAddr("10.0.0.2"),
			SrcPort: 1, DstPort: 2, PadTo: 64,
		})
		if useFlex {
			mod, _, err := build.Module(sim, build.ModuleSpec{
				Name: "m", DeviceID: 1, Shell: hls.TwoWayCore, App: "nat",
			})
			if err != nil {
				t.Fatal(err)
			}
			mod.SetTx(core.PortOptical, func(b []byte) { rx = sim.Now() })
			mod.RxEdge(frame)
		} else {
			sfp := core.NewStandardSFP(sim)
			sfp.SetTx(core.PortOptical, func(b []byte) { rx = sim.Now() })
			sfp.RxEdge(frame)
		}
		sim.Run()
		return netsim.Duration(rx)
	}
	plain := measure(false)
	flex := measure(true)
	if flex <= plain {
		t.Fatalf("flex latency %v not above plain %v", flex, plain)
	}
	// The added latency is sub-microsecond — the §6 trade-off is cheap.
	if added := flex - plain; added > netsim.Microsecond {
		t.Errorf("added in-cable latency = %v, want < 1 µs", added)
	}
}

// TestVerdictNameStrings pins the public string forms used in reports.
func TestVerdictNameStrings(t *testing.T) {
	if hls.OneWayFilter.String() != "one-way-filter" || hls.ActiveCore.String() != "active-core" {
		t.Error("shell names changed")
	}
}
