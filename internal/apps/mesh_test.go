package apps

import (
	"bytes"
	"net/netip"
	"testing"

	"flexsfp/internal/packet"
	"flexsfp/internal/ppe"
)

func meshTestConfig(mode string, host byte) MeshConfig {
	return MeshConfig{
		Mode:     mode,
		LocalIP:  netip.AddrFrom4([4]byte{10, 254, 0, host}).String(),
		LocalMAC: packet.MAC{0x02, 0xcc, 0, 0, 0, host}.String(),
		VNI:      4000 + uint32(host),
		GREKey:   700 + uint32(host),
	}
}

func meshTestPeer(mode uint8, host byte) MeshPeer {
	return MeshPeer{
		Mode: mode,
		IP:   [4]byte{10, 254, 0, host},
		MAC:  [6]byte{0x02, 0xcc, 0, 0, 0, host},
		VNI:  4000 + uint32(host),
		// GREKey mirrors the peer's receive-side key so its decap accepts us.
		GREKey: 700 + uint32(host),
	}
}

func addMeshPeer(t *testing.T, a *meshApp, id uint16, p MeshPeer) {
	t.Helper()
	k, v := MeshPeerKey(id), p.Encode()
	if err := a.peers.Add(k[:], v[:]); err != nil {
		t.Fatal(err)
	}
}

func addMeshRoute(t *testing.T, a *meshApp, prefix [4]byte, id uint16) {
	t.Helper()
	k, v := MeshRouteKey(prefix), MeshRouteValue(id)
	if err := a.routes.Add(k[:], v[:]); err != nil {
		t.Fatal(err)
	}
}

func newMeshApp(t *testing.T, mode string, host byte) *meshApp {
	t.Helper()
	a := NewMesh()
	if err := a.Configure(mustJSON(t, meshTestConfig(mode, host))); err != nil {
		t.Fatal(err)
	}
	return a
}

// Routing picks per-peer encap state: two peers in different modes, two
// prefixes, and each edge frame comes out wrapped for the right remote.
func TestMeshEncapsPerPeerMode(t *testing.T) {
	a := newMeshApp(t, TunnelVXLAN, 1)
	addMeshPeer(t, a, 2, meshTestPeer(MeshModeGRE, 2))
	addMeshPeer(t, a, 3, meshTestPeer(MeshModeVXLAN, 3))
	addMeshRoute(t, a, [4]byte{10, 200, 2, 0}, 2)
	addMeshRoute(t, a, [4]byte{10, 200, 3, 0}, 3)

	for _, tc := range []struct {
		dst  netip.Addr
		peer byte
		gre  bool
	}{
		{netip.AddrFrom4([4]byte{10, 200, 2, 9}), 2, true},
		{netip.AddrFrom4([4]byte{10, 200, 3, 77}), 3, false},
	} {
		frame := packet.MustBuild(packet.Spec{
			SrcMAC: macHost, DstMAC: macGW, SrcIP: ipInt, DstIP: tc.dst,
			SrcPort: 7, DstPort: 8, PadTo: 96,
		})
		v, out := run(a.prog.Handler, frame, ppe.DirEdgeToOptical)
		if v != ppe.VerdictPass {
			t.Fatalf("peer %d: verdict %v", tc.peer, v)
		}
		pkt := packet.NewPacket(out, packet.LayerTypeEthernet)
		if pkt.ErrorLayer() != nil {
			t.Fatal(pkt.ErrorLayer())
		}
		outer := pkt.Layer(packet.LayerTypeIPv4).(*packet.IPv4)
		wantDst := netip.AddrFrom4([4]byte{10, 254, 0, tc.peer})
		if outer.DstIP != wantDst {
			t.Errorf("peer %d: outer dst %v, want %v", tc.peer, outer.DstIP, wantDst)
		}
		if tc.gre {
			gre := pkt.Layer(packet.LayerTypeGRE)
			if gre == nil || gre.(*packet.GRE).Key != 700+uint32(tc.peer) {
				t.Fatalf("peer %d: gre = %+v", tc.peer, gre)
			}
		} else {
			vx := pkt.Layer(packet.LayerTypeVXLAN)
			if vx == nil || vx.(*packet.VXLAN).VNI != 4000+uint32(tc.peer) {
				t.Fatalf("peer %d: vxlan = %+v", tc.peer, vx)
			}
		}
	}
	if n, _ := a.ctr.Read(MeshEncapped); n != 2 {
		t.Errorf("encapped = %d", n)
	}
}

// Full mesh round trip in both modes: A encaps toward B using B's
// registered endpoint, B decaps back to the original edge frame.
func TestMeshRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode uint8
		bCfg string
	}{
		{"gre", MeshModeGRE, TunnelGRE},
		{"vxlan", MeshModeVXLAN, TunnelVXLAN},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := newMeshApp(t, TunnelVXLAN, 1)
			b := newMeshApp(t, tc.bCfg, 2)
			addMeshPeer(t, a, 2, meshTestPeer(tc.mode, 2))
			addMeshRoute(t, a, [4]byte{10, 200, 2, 0}, 2)

			inner := packet.MustBuild(packet.Spec{
				SrcMAC: macHost, DstMAC: macGW, SrcIP: ipInt,
				DstIP:   netip.AddrFrom4([4]byte{10, 200, 2, 5}),
				SrcPort: 7, DstPort: 8, PadTo: 128,
			})
			_, encapped := run(a.prog.Handler, inner, ppe.DirEdgeToOptical)
			wire := append([]byte(nil), encapped...)
			v, decapped := run(b.prog.Handler, wire, ppe.DirOpticalToEdge)
			if v != ppe.VerdictPass {
				t.Fatalf("decap verdict %v", v)
			}
			if !bytes.Equal(decapped, inner) {
				t.Fatal("inner frame corrupted through the mesh")
			}
			if n, _ := b.ctr.Read(MeshDecapped); n != 1 {
				t.Errorf("decapped = %d", n)
			}
		})
	}
}

// Frames matching no overlay prefix pass untouched (underlay traffic).
func TestMeshNoRoutePasses(t *testing.T) {
	a := newMeshApp(t, TunnelVXLAN, 1)
	frame := udpFrame(t, ipInt, ipSrv, 7, 8)
	v, out := run(a.prog.Handler, frame, ppe.DirEdgeToOptical)
	if v != ppe.VerdictPass || !bytes.Equal(out, frame) {
		t.Fatalf("verdict %v, frame modified=%v", v, !bytes.Equal(out, frame))
	}
	if n, _ := a.ctr.Read(MeshNoRoute); n != 1 {
		t.Errorf("no-route = %d", n)
	}
}

// A withdrawn peer fails closed: once the peer table entry is deleted,
// frames for a route still naming it are dropped (MeshNoPeer), never
// encapped toward the dead remote — the datapath half of the chaos
// invariant. The cache must notice the table generation change.
func TestMeshWithdrawnPeerFailsClosed(t *testing.T) {
	a := newMeshApp(t, TunnelVXLAN, 1)
	addMeshPeer(t, a, 2, meshTestPeer(MeshModeVXLAN, 2))
	addMeshRoute(t, a, [4]byte{10, 200, 2, 0}, 2)

	frame := packet.MustBuild(packet.Spec{
		SrcMAC: macHost, DstMAC: macGW, SrcIP: ipInt,
		DstIP:   netip.AddrFrom4([4]byte{10, 200, 2, 5}),
		SrcPort: 7, DstPort: 8, PadTo: 96,
	})
	if v, _ := run(a.prog.Handler, frame, ppe.DirEdgeToOptical); v != ppe.VerdictPass {
		t.Fatal("pre-withdrawal frame dropped")
	}

	k := MeshPeerKey(2)
	if err := a.peers.Delete(k[:]); err != nil {
		t.Fatal(err)
	}
	v, _ := run(a.prog.Handler, frame, ppe.DirEdgeToOptical)
	if v != ppe.VerdictDrop {
		t.Fatal("frame delivered toward a withdrawn peer")
	}
	if n, _ := a.ctr.Read(MeshNoPeer); n != 1 {
		t.Errorf("no-peer = %d", n)
	}

	// Re-registering the peer restores forwarding (cache follows the
	// generation forward, not just on first change).
	addMeshPeer(t, a, 2, meshTestPeer(MeshModeVXLAN, 2))
	if v, _ := run(a.prog.Handler, frame, ppe.DirEdgeToOptical); v != ppe.VerdictPass {
		t.Fatal("re-registered peer still dropped")
	}
}

// The mesh hot path is alloc-free in steady state (stable peer table).
// Each run feeds a fresh pool buffer, as the datapath does: encap and
// decap edit the frame in place, so a reused input would be garbage after
// the first run.
func TestMeshHandlerZeroAlloc(t *testing.T) {
	a := newMeshApp(t, TunnelVXLAN, 1)
	addMeshPeer(t, a, 2, meshTestPeer(MeshModeGRE, 2))
	addMeshPeer(t, a, 3, meshTestPeer(MeshModeVXLAN, 3))
	addMeshRoute(t, a, [4]byte{10, 200, 2, 0}, 2)
	addMeshRoute(t, a, [4]byte{10, 200, 3, 0}, 3)
	b := newMeshApp(t, TunnelVXLAN, 3)

	frames := make([][]byte, 2)
	for i, dst := range [][4]byte{{10, 200, 2, 5}, {10, 200, 3, 5}} {
		frames[i] = packet.MustBuild(packet.Spec{
			SrcMAC: macHost, DstMAC: macGW, SrcIP: ipInt,
			DstIP:   netip.AddrFrom4(dst),
			SrcPort: 7, DstPort: 8, PadTo: 256,
		})
	}
	ctx := &ppe.Ctx{Dir: ppe.DirEdgeToOptical, TimestampNs: 1}
	var verdicts [2]ppe.Verdict
	var lens [2]int
	if n := testing.AllocsPerRun(200, func() {
		for i, f := range frames {
			ctx.Data = poolCopy(f)
			verdicts[i] = a.prog.Handler.HandlePacket(ctx)
			lens[i] = len(ctx.Data)
			packet.PutBuffer(ctx.Data)
		}
	}); n != 0 {
		t.Errorf("mesh egress: %.1f allocs/op, want 0", n)
	}
	// GRE with a key toward peer 2, VXLAN toward peer 3.
	for i, over := range []int{42, 50} {
		if verdicts[i] != ppe.VerdictPass || lens[i] != len(frames[i])+over {
			t.Errorf("mesh egress frame %d: verdict %v, %dB, want Pass, %dB", i, verdicts[i], lens[i], len(frames[i])+over)
		}
	}

	ctx.Data = poolCopy(frames[1])
	a.prog.Handler.HandlePacket(ctx)
	wire := append([]byte(nil), ctx.Data...)
	packet.PutBuffer(ctx.Data)
	dctx := &ppe.Ctx{Dir: ppe.DirOpticalToEdge, TimestampNs: 1}
	var v ppe.Verdict
	var got int
	if n := testing.AllocsPerRun(200, func() {
		dctx.Data = poolCopy(wire)
		v = b.prog.Handler.HandlePacket(dctx)
		got = len(dctx.Data)
		packet.PutBuffer(dctx.Data)
	}); n != 0 {
		t.Errorf("mesh ingress: %.1f allocs/op, want 0", n)
	}
	if v != ppe.VerdictPass || got != len(frames[1]) {
		t.Errorf("mesh ingress: verdict %v, %dB, want Pass, %dB (decapped)", v, got, len(frames[1]))
	}
}

// poolCopy copies f into a pool buffer, the way frames enter the datapath.
func poolCopy(f []byte) []byte {
	b := packet.GetBuffer(len(f))
	copy(b, f)
	return b
}
