package flexsfp

import (
	"net/netip"
	"testing"

	"flexsfp/internal/apps"
	"flexsfp/internal/build"
	"flexsfp/internal/hls"
	"flexsfp/internal/netsim"
	"flexsfp/internal/packet"
)

func TestBuildModuleQuickstart(t *testing.T) {
	sim := netsim.New(1)
	mod, design, err := build.Module(sim, build.ModuleSpec{
		Name: "sfp-0", DeviceID: 42, Shell: hls.TwoWayCore, App: "nat",
		Config: apps.NATConfig{Mappings: []apps.NATMapping{
			{Internal: "192.168.1.10", External: "203.0.113.10"},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !mod.Running() {
		t.Fatal("module not running")
	}
	if design.Target.Name != "MPF200T" || !design.Fit.Fits {
		t.Errorf("design = %+v", design.Fit)
	}
	// Pass one packet through and verify translation.
	var out []byte
	mod.SetTx(1, func(b []byte) { out = b })
	frame := packet.MustBuild(packet.Spec{
		SrcMAC: packet.MustMAC("02:00:00:00:00:01"),
		DstMAC: packet.MustMAC("02:00:00:00:00:02"),
		SrcIP:  mustAddr("192.168.1.10"), DstIP: mustAddr("198.51.100.1"),
		SrcPort: 1234, DstPort: 80, PadTo: 64,
	})
	mod.RxEdge(frame)
	sim.Run()
	if out == nil {
		t.Fatal("no egress frame")
	}
	pkt := packet.NewPacket(out, packet.LayerTypeEthernet)
	ip := pkt.Layer(packet.LayerTypeIPv4).(*packet.IPv4)
	if ip.SrcIP.String() != "203.0.113.10" {
		t.Errorf("translated src = %v", ip.SrcIP)
	}
}

func TestBuildModuleErrors(t *testing.T) {
	sim := netsim.New(1)
	if _, _, err := build.Module(sim, build.ModuleSpec{Name: "x"}); err == nil {
		t.Error("missing app accepted")
	}
	if _, _, err := build.Module(sim, build.ModuleSpec{App: "unknown-app"}); err == nil {
		t.Error("unknown app accepted")
	}
	// App that requires config must fail without it.
	if _, _, err := build.Module(sim, build.ModuleSpec{App: "vlan"}); err == nil {
		t.Error("vlan app booted without config")
	}
}

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }
