package overlay

import (
	"bytes"
	"fmt"
	"net/netip"
	"reflect"
	"testing"

	"flexsfp/internal/apps"
	"flexsfp/internal/mgmt"
	"flexsfp/internal/netsim"
	"flexsfp/internal/packet"
)

// innerFrame builds an edge frame from srcHost's /24 toward dstCable's
// announced prefix.
func innerFrame(srcCable, dstCable int, payload string) []byte {
	return packet.MustBuild(packet.Spec{
		SrcMAC:  packet.MustMAC("02:0e:00:00:00:01"),
		DstMAC:  packet.MustMAC("02:0e:00:00:00:02"),
		SrcIP:   netip.MustParseAddr(fmt.Sprintf("10.200.%d.1", srcCable+1)),
		DstIP:   netip.MustParseAddr(fmt.Sprintf("10.200.%d.9", dstCable+1)),
		SrcPort: 1111, DstPort: 2222,
		Payload: []byte(payload),
	})
}

// Three cables register at the rendezvous, converge to identical mesh
// state, and deliver edge traffic across the fabric; withdrawing one
// fails its prefix over to the announced backup.
func TestFabricEndToEnd(t *testing.T) {
	sh := netsim.NewSharded(7, 2)
	type delivery struct {
		count int
		last  []byte
	}
	var got [3]delivery
	f, err := NewFabric(FabricSpec{
		Sh: sh, Cables: 3,
		Prefixes: func(i int) []mgmt.OverlayPrefix {
			ps := []mgmt.OverlayPrefix{DefaultPrefix(i)}
			if i == 0 {
				// Cable 0 backs up cable 2's prefix.
				ps = append(ps, mgmt.OverlayPrefix{IP: [4]byte{10, 200, 3, 0}, Len: 24, Priority: 1})
			}
			return ps
		},
		EdgeSink: func(i int, data []byte) {
			got[i].count++
			got[i].last = append(got[i].last[:0], data...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.RegisterAll(); err != nil {
		t.Fatal(err)
	}

	// Every cable sees the same fabric table at the same generation.
	var tables []mgmt.OverlayTable
	for _, c := range f.Cables {
		tab, err := c.Ctl.Sync()
		if err != nil {
			t.Fatalf("sync %s: %v", c.Name, err)
		}
		tables = append(tables, tab)
	}
	for i := 1; i < len(tables); i++ {
		if !reflect.DeepEqual(tables[i], tables[0]) {
			t.Fatalf("cable %d synced a different table:\n%+v\nvs\n%+v", i, tables[i], tables[0])
		}
	}
	if tables[0].Generation != 3 || len(tables[0].Peers) != 3 {
		t.Fatalf("table = gen %d, %d peers, want gen 3 with 3 peers", tables[0].Generation, len(tables[0].Peers))
	}
	// Each cable's datapath holds exactly the other two peers.
	for _, c := range f.Cables {
		dump, err := dumpPeers(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(dump) != 2 {
			t.Fatalf("%s has %d mesh peers, want 2", c.Name, len(dump))
		}
	}

	// Traffic: cable 0 → cable 1's prefix (VXLAN peer), cable 1 →
	// cable 2's prefix (GRE peer).
	epoch := sh.AlignClocks()
	f01 := innerFrame(0, 1, "zero-to-one")
	f12 := innerFrame(1, 2, "one-to-two")
	f.Cables[0].Sim.ScheduleAt(epoch.Add(netsim.Microsecond), func() { f.Cables[0].Mod.RxEdge(f01) })
	f.Cables[1].Sim.ScheduleAt(epoch.Add(netsim.Microsecond), func() { f.Cables[1].Mod.RxEdge(f12) })
	sh.RunUntil(epoch.Add(200 * netsim.Microsecond))

	if got[1].count != 1 || !bytes.Equal(got[1].last, f01) {
		t.Fatalf("cable 1 edge: %d deliveries, match=%v", got[1].count, bytes.Equal(got[1].last, f01))
	}
	if got[2].count != 1 || !bytes.Equal(got[2].last, f12) {
		t.Fatalf("cable 2 edge: %d deliveries, match=%v", got[2].count, bytes.Equal(got[2].last, f12))
	}

	// Withdraw cable 2 (observer: cable 0). After resync, its prefix is
	// owned by the backup: cable 1's traffic to 10.200.3/24 lands on
	// cable 0's edge.
	if err := f.Withdraw(0, "cable-2"); err != nil {
		t.Fatal(err)
	}
	if err := f.SyncAll(); err != nil {
		t.Fatal(err)
	}
	f.SetCableLinks(2, false)
	f23 := innerFrame(1, 2, "failover")
	f.Cables[1].Sim.ScheduleAt(epoch.Add(300*netsim.Microsecond), func() { f.Cables[1].Mod.RxEdge(f23) })
	sh.RunUntil(epoch.Add(500 * netsim.Microsecond))

	if got[0].count != 1 || !bytes.Equal(got[0].last, f23) {
		t.Fatalf("failover: cable 0 edge got %d deliveries", got[0].count)
	}
	if got[2].count != 1 {
		t.Fatalf("withdrawn cable 2 received traffic after failover: %d", got[2].count)
	}
}

// A route pointing at a peer missing from mesh_peers (the mid-sync
// transient) drops and counts MeshNoPeer — frames are never delivered to
// a withdrawn peer, and never misrouted.
func TestFabricWithdrawnPeerFailsClosed(t *testing.T) {
	sh := netsim.NewSharded(11, 1)
	var delivered [2]int
	f, err := NewFabric(FabricSpec{
		Sh: sh, Cables: 2,
		EdgeSink: func(i int, data []byte) { delivered[i]++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.RegisterAll(); err != nil {
		t.Fatal(err)
	}

	// Rip cable 1's peer entry out of cable 0's datapath while leaving
	// the route in place — exactly the state a crashed peer leaves
	// behind before the controller's next sync.
	c0 := f.Cables[0]
	client := mgmt.NewClient(mgmt.TransportFunc(func(req []byte) ([]byte, error) {
		return c0.Agent.Handle(req), nil
	}))
	var peerKey [2]byte
	dump, err := dumpPeers(c0)
	if err != nil {
		t.Fatal(err)
	}
	if len(dump) != 1 {
		t.Fatalf("cable 0 has %d peers, want 1", len(dump))
	}
	for k := range dump {
		peerKey = [2]byte{k[0], k[1]}
	}
	if err := client.TableDel(apps.MeshPeerTable, peerKey[:]); err != nil {
		t.Fatal(err)
	}

	epoch := sh.AlignClocks()
	txBefore := c0.Links[1].Stats().TxFrames
	frame := innerFrame(0, 1, "into-the-void")
	c0.Sim.ScheduleAt(epoch.Add(netsim.Microsecond), func() { c0.Mod.RxEdge(frame) })
	sh.RunUntil(epoch.Add(100 * netsim.Microsecond))

	if delivered[1] != 0 {
		t.Fatal("frame delivered to withdrawn peer")
	}
	if tx := c0.Links[1].Stats().TxFrames; tx != txBefore {
		t.Fatalf("frame left on the underlay link: %d -> %d", txBefore, tx)
	}
	if pkts, _, err := client.CounterRead("mesh", apps.MeshNoPeer); err != nil || pkts != 1 {
		t.Fatalf("MeshNoPeer = %d (%v), want 1", pkts, err)
	}
}

// dumpPeers reads a cable's mesh_peers table through its agent.
func dumpPeers(c *Cable) (map[string][]byte, error) {
	client := mgmt.NewClient(mgmt.TransportFunc(func(req []byte) ([]byte, error) {
		return c.Agent.Handle(req), nil
	}))
	entries, err := client.TableDump(apps.MeshPeerTable)
	if err != nil {
		return nil, err
	}
	out := map[string][]byte{}
	for _, e := range entries {
		out[string(e.Key)] = e.Value
	}
	return out, nil
}
