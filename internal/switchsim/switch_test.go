package switchsim

import (
	"encoding/json"
	"net/netip"
	"testing"

	"flexsfp/internal/apps"
	"flexsfp/internal/build"
	"flexsfp/internal/core"
	"flexsfp/internal/hls"
	"flexsfp/internal/netsim"
	"flexsfp/internal/packet"
)

const tenGig = 10_000_000_000

var (
	macH1 = packet.MustMAC("02:00:00:00:01:01")
	macH2 = packet.MustMAC("02:00:00:00:01:02")
	macH3 = packet.MustMAC("02:00:00:00:01:03")
	ipH1  = netip.MustParseAddr("10.0.0.1")
	ipH2  = netip.MustParseAddr("10.0.0.2")
)

// buildAccess wires a 3-port switch with standard SFPs and three hosts.
func buildAccess(t *testing.T, sim *netsim.Simulator) (*Switch, []*Host) {
	t.Helper()
	sw := New(sim, 3)
	hosts := []*Host{
		NewHost("h1", macH1), NewHost("h2", macH2), NewHost("h3", macH3),
	}
	for i, h := range hosts {
		sw.Cage(i).Insert(core.NewStandardSFP(sim))
		Fiber(sim, sw.Cage(i), h, tenGig, 100)
	}
	return sw, hosts
}

func frame(t *testing.T, src, dst packet.MAC) []byte {
	t.Helper()
	return packet.MustBuild(packet.Spec{
		SrcMAC: src, DstMAC: dst,
		SrcIP: ipH1, DstIP: ipH2,
		SrcPort: 1000, DstPort: 2000, PadTo: 64,
	})
}

func TestFloodThenLearnThenForward(t *testing.T) {
	sim := netsim.New(1)
	sw, hosts := buildAccess(t, sim)

	// First frame h1→h2: unknown destination, flooded to h2 and h3.
	hosts[0].Send(frame(t, macH1, macH2))
	sim.Run()
	if hosts[1].RxFrames != 1 || hosts[2].RxFrames != 1 {
		t.Errorf("flood: h2=%d h3=%d", hosts[1].RxFrames, hosts[2].RxFrames)
	}
	if sw.Stats().Flooded != 1 {
		t.Errorf("flooded = %d", sw.Stats().Flooded)
	}

	// Reply h2→h1: h1's MAC is learned, so unicast.
	hosts[1].Send(frame(t, macH2, macH1))
	sim.Run()
	if hosts[0].RxFrames != 1 {
		t.Errorf("h1 rx = %d", hosts[0].RxFrames)
	}
	if hosts[2].RxFrames != 1 {
		t.Errorf("h3 rx = %d (reply should not flood)", hosts[2].RxFrames)
	}
	if sw.Stats().Forwarded != 1 {
		t.Errorf("forwarded = %d", sw.Stats().Forwarded)
	}

	// Now h1→h2 is unicast too.
	hosts[0].Send(frame(t, macH1, macH2))
	sim.Run()
	if hosts[2].RxFrames != 1 {
		t.Error("learned forwarding still flooding")
	}
	if sw.MACTableSize() != 2 {
		t.Errorf("mac table = %d entries", sw.MACTableSize())
	}
}

func TestBroadcastFloods(t *testing.T) {
	sim := netsim.New(1)
	_, hosts := buildAccess(t, sim)
	bc := packet.MustBuild(packet.Spec{
		SrcMAC: macH1, DstMAC: packet.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		SrcIP: ipH1, DstIP: ipH2, SrcPort: 1, DstPort: 2, PadTo: 64,
	})
	hosts[0].Send(bc)
	sim.Run()
	if hosts[1].RxFrames != 1 || hosts[2].RxFrames != 1 {
		t.Error("broadcast not flooded to all other ports")
	}
}

func TestHairpinFiltered(t *testing.T) {
	sim := netsim.New(1)
	sw, hosts := buildAccess(t, sim)
	// Teach the switch both MACs on port 0's segment is impossible here;
	// instead send a frame whose destination is its own source port.
	hosts[0].Send(frame(t, macH1, macH2)) // learn h1@0 (flood)
	sim.Run()
	hosts[1].Send(frame(t, macH2, macH1)) // learn h2@1 (forward)
	sim.Run()
	drops := sw.Stats().Dropped
	hosts[0].Send(frame(t, macH2, macH1)) // claims to be h2 but arrives on 0 → dst h1 is on 0: hairpin
	sim.Run()
	if sw.Stats().Dropped != drops+1 {
		t.Errorf("hairpin not filtered: drops %d → %d", drops, sw.Stats().Dropped)
	}
}

func TestFabricLatency(t *testing.T) {
	sim := netsim.New(1)
	_, hosts := buildAccess(t, sim)
	hosts[0].Send(frame(t, macH1, macH2))
	var deliveredAt netsim.Time
	hosts[1].OnFrame = func(data []byte) { deliveredAt = sim.Now() }
	sim.Run()
	// Path: fiber up (68 ns ser + 100 prop) + retimer 5 + fabric 800 +
	// retimer 5 + fiber down (68 + 100). Roughly 1.1 µs.
	if deliveredAt < 1000 || deliveredAt > 1500 {
		t.Errorf("delivered at %v, want ≈1.1 µs", deliveredAt)
	}
}

// TestRetrofitACL is the §2.1 scenario in miniature: swapping a standard
// SFP for a FlexSFP running the firewall turns a dumb port into an
// enforcement point, with zero switch changes.
func TestRetrofitACL(t *testing.T) {
	sim := netsim.New(1)
	sw, hosts := buildAccess(t, sim)

	// Establish MAC learning with the plain SFPs first.
	hosts[0].Send(frame(t, macH1, macH2))
	sim.Run()
	hosts[1].Send(frame(t, macH2, macH1))
	sim.Run()
	h2Before := hosts[1].RxFrames

	// Retrofit port 1 with a FlexSFP running an ACL that denies UDP 2000
	// toward the subscriber.
	reg := apps.NewRegistry()
	mod := core.NewModule(core.Config{
		Sim: sim, Name: "flex-p1", DeviceID: 1,
		Shell: hls.TwoWayCore, Registry: reg, AuthKey: []byte("k"),
	})
	aclCfg, _ := json.Marshal(apps.ACLConfig{
		Rules: []apps.ACLRule{{DstPort: 2000, Proto: 17, Deny: true, Priority: 10}},
	})
	app, err := reg.New("acl")
	if err != nil {
		t.Fatal(err)
	}
	design, err := hls.Compile(app.Program(), hls.Options{
		ClockHz: 156_250_000, DatapathBits: 64, Config: aclCfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	enc, _ := design.Bitstream.Encode()
	if _, err := mod.Install(1, enc); err != nil {
		t.Fatal(err)
	}
	if err := mod.BootSync(1); err != nil {
		t.Fatal(err)
	}
	sw.Cage(1).Insert(mod)
	Fiber(sim, sw.Cage(1), hosts[1], tenGig, 100)

	// Blocked traffic (UDP 2000) no longer reaches h2...
	hosts[0].Send(frame(t, macH1, macH2))
	sim.Run()
	if hosts[1].RxFrames != h2Before {
		t.Error("ACL did not block filtered traffic")
	}
	// ...but other traffic does.
	ok := packet.MustBuild(packet.Spec{
		SrcMAC: macH1, DstMAC: macH2, SrcIP: ipH1, DstIP: ipH2,
		SrcPort: 1000, DstPort: 443, Proto: packet.IPProtocolTCP, PadTo: 64,
	})
	hosts[0].Send(ok)
	sim.Run()
	if hosts[1].RxFrames != h2Before+1 {
		t.Error("permitted traffic blocked after retrofit")
	}
	if mod.Engine().Stats().Drop != 1 {
		t.Errorf("module drops = %d", mod.Engine().Stats().Drop)
	}
}

func TestTransceiverPowerSum(t *testing.T) {
	sim := netsim.New(1)
	sw, _ := buildAccess(t, sim)
	// 3 standard SFPs.
	want := 3 * core.StandardSFPPowerW
	if got := sw.TotalTransceiverPowerW(); got < want-1e-9 || got > want+1e-9 {
		t.Errorf("power = %.6f, want %.6f", got, want)
	}
}

func TestEmptyCageDrops(t *testing.T) {
	sim := netsim.New(1)
	sw := New(sim, 2)
	sw.Cage(0).Insert(core.NewStandardSFP(sim))
	h := NewHost("h", macH1)
	Fiber(sim, sw.Cage(0), h, tenGig, 100)
	h.Send(frame(t, macH1, macH2)) // floods toward empty cage 1
	sim.Run()
	if sw.Stats().Dropped == 0 {
		t.Error("frame to empty cage not counted as dropped")
	}
}

// TestFloodGivesEachPortItsOwnFrame: a flood hands every port a copy.
// Cages 1 and 2 hold NAT FlexSFPs mapping h1's address to different
// externals; each rewrites its frame in place, so had they shared one
// slice, cage 2 would see cage 1's rewrite, miss, and pass 100.64.0.1.
func TestFloodGivesEachPortItsOwnFrame(t *testing.T) {
	sim := netsim.New(1)
	sw := New(sim, 3)
	hosts := []*Host{NewHost("h1", macH1), NewHost("h2", macH2), NewHost("h3", macH3)}
	sw.Cage(0).Insert(core.NewStandardSFP(sim))
	for i, ext := range []string{"100.64.0.1", "100.64.0.2"} {
		mod, _, err := build.Module(sim, build.ModuleSpec{
			Name: hosts[i+1].Name, DeviceID: uint32(i + 1), Shell: hls.TwoWayCore, App: "nat",
			Config: apps.NATConfig{Mappings: []apps.NATMapping{{Internal: ipH1.String(), External: ext}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		sw.Cage(i + 1).Insert(mod)
	}
	got := make([]netip.Addr, len(hosts))
	for i, h := range hosts {
		Fiber(sim, sw.Cage(i), h, tenGig, 100)
		h.OnFrame = func(data []byte) {
			var v packet.View
			if v.Parse(data) && v.IsIPv4 {
				got[i] = netip.AddrFrom4([4]byte(v.SrcIPv4()))
			}
		}
	}

	hosts[0].Send(frame(t, macH1, macH3)) // h3 not learned yet: flooded
	sim.Run()
	if sw.Stats().Flooded != 1 {
		t.Fatalf("flooded = %d, want 1", sw.Stats().Flooded)
	}
	for i, want := range []string{"100.64.0.1", "100.64.0.2"} {
		if h := hosts[i+1]; got[i+1] != netip.MustParseAddr(want) {
			t.Errorf("%s received source %v, want %s", h.Name, got[i+1], want)
		}
	}
}
