package daemon

// Three-cable daemon-level overlay E2E: one daemon hosts the rendezvous
// and joins in-process, two more join it over real TCP, and all three
// converge to the identical fabric table — the daemon-boundary version
// of the in-simulator fabric test in internal/overlay.

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexsfp/internal/apps"
	"flexsfp/internal/mgmt"
	"flexsfp/internal/overlay"
)

// startMeshDaemon boots one overlay endpoint. Cable 0 hosts the
// rendezvous; the rest join it at rdvAddr.
func startMeshDaemon(t *testing.T, i int, rdvAddr string) *Daemon {
	t.Helper()
	ovl := &OverlayConfig{
		Join: rdvAddr,
		IP:   fmt.Sprintf("10.254.0.%d", i+1),
		Mode: apps.TunnelGRE, GREKey: uint32(700 + i),
		Prefixes: []string{fmt.Sprintf("10.200.%d.0/24", i+1)},
	}
	if i == 0 {
		ovl.Listen, ovl.Join = "127.0.0.1:0", ""
		ovl.Mode = apps.TunnelVXLAN
		ovl.VNI, ovl.GREKey = 4000, 0
		// The host also backs up cable 2's prefix.
		ovl.Prefixes = append(ovl.Prefixes, "10.200.3.0/24@1")
	}
	d, err := Start(Config{
		Listen: "127.0.0.1:0", Name: fmt.Sprintf("cable-%d", i),
		DeviceID: uint32(i + 1), App: "mesh", Shell: "two-way-core",
		Telemetry: i == 0, Overlay: ovl,
	})
	if err != nil {
		t.Fatalf("start cable-%d: %v", i, err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// meshPeers dumps a daemon's mesh_peers table over its management port.
func meshPeers(t *testing.T, d *Daemon) map[string][]byte {
	t.Helper()
	conn, err := mgmt.Dial(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	entries, err := mgmt.NewClient(conn).TableDump(apps.MeshPeerTable)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		out[string(e.Key)] = e.Value
	}
	return out
}

func TestDaemonOverlayThreeCables(t *testing.T) {
	host := startMeshDaemon(t, 0, "")
	if host.RendezvousAddr() == "" {
		t.Fatal("host did not expose a rendezvous address")
	}
	ds := []*Daemon{host,
		startMeshDaemon(t, 1, host.RendezvousAddr()),
		startMeshDaemon(t, 2, host.RendezvousAddr()),
	}

	// Every daemon re-syncs after the last registration and lands on the
	// same table at the same generation.
	var tables []mgmt.OverlayTable
	for i, d := range ds {
		tab, err := d.OverlaySync()
		if err != nil {
			t.Fatalf("sync cable-%d: %v", i, err)
		}
		tables = append(tables, tab)
	}
	for i := 1; i < len(tables); i++ {
		if !reflect.DeepEqual(tables[i], tables[0]) {
			t.Fatalf("cable-%d synced a different table:\n%+v\nvs\n%+v", i, tables[i], tables[0])
		}
	}
	if tables[0].Generation != 3 || len(tables[0].Peers) != 3 {
		t.Fatalf("fabric = gen %d with %d peers, want gen 3 with 3", tables[0].Generation, len(tables[0].Peers))
	}

	// Identical peer tables in the datapaths: every daemon holds the
	// other two, and any two views of the same peer are byte-equal.
	views := make([]map[string][]byte, len(ds))
	for i, d := range ds {
		views[i] = meshPeers(t, d)
		if len(views[i]) != 2 {
			t.Fatalf("cable-%d has %d mesh peers, want 2", i, len(views[i]))
		}
	}
	for i, vi := range views {
		for k, v := range vi {
			for j, vj := range views {
				if other, ok := vj[k]; i != j && ok && !reflect.DeepEqual(v, other) {
					t.Fatalf("cable-%d and cable-%d disagree on peer %x", i, j, k)
				}
			}
		}
	}

	// The host's telemetry mirrors the fabric state.
	snap := host.reg.Snapshot()
	gauges := map[string]float64{}
	for _, g := range snap.Gauges {
		gauges[g.Name] = g.Value
	}
	if gauges["overlay.generation"] != 3 || gauges["overlay.peers"] != 3 {
		t.Fatalf("overlay gauges = %v, want generation 3 / peers 3", gauges)
	}

	// Withdraw cable-2 through the public rendezvous port, resync, and
	// the survivors converge: cable-2's peer entry is gone everywhere and
	// its prefix failed over to the host's backup announcement.
	conn, err := mgmt.Dial(host.RendezvousAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := mgmt.NewClient(conn).OverlayWithdraw("cable-2"); err != nil {
		t.Fatal(err)
	}
	for i, d := range ds[:2] {
		tab, err := d.OverlaySync()
		if err != nil {
			t.Fatalf("post-withdraw sync cable-%d: %v", i, err)
		}
		if len(tab.Peers) != 2 {
			t.Fatalf("cable-%d still sees %d peers after withdrawal", i, len(tab.Peers))
		}
		owner := uint16(0xffff)
		for _, r := range tab.Routes {
			if r.Prefix.IP == [4]byte{10, 200, 3, 0} {
				owner = r.Peer
			}
		}
		if owner != tables[0].Peers[0].ID {
			t.Fatalf("cable-%d: 10.200.3.0/24 owned by peer %d, want backup %d",
				i, owner, tables[0].Peers[0].ID)
		}
		if got := meshPeers(t, d); len(got) != 1 {
			t.Fatalf("cable-%d datapath still holds %d peers", i, len(got))
		}
	}
}

// TestOverlaySyncLoop runs the background sync on a short tick against a
// rendezvous the test serves, takes down and brings back: a generation
// change is logged once, a sync against the down rendezvous is logged and
// retried on the next tick, and the loop converges on the generation the
// rendezvous reached while it was down.
func TestOverlaySyncLoop(t *testing.T) {
	rdv := overlay.NewRendezvous()
	var syncs atomic.Int64 // requests the rendezvous answered
	handle := func(req []byte) []byte {
		syncs.Add(1)
		return rdv.Handle(req)
	}
	srv := mgmt.NewServer(handle)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Close() }()

	var mu sync.Mutex
	var lines []string
	logged := func(substr string) int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, l := range lines {
			if strings.Contains(l, substr) {
				n++
			}
		}
		return n
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				mu.Lock()
				defer mu.Unlock()
				t.Fatalf("no %s within 5 s; log:\n%s", what, strings.Join(lines, "\n"))
			}
		}
	}
	// quiet waits out three more answered syncs, so a line logged on every
	// tick would show.
	quiet := func() {
		t.Helper()
		n := syncs.Load()
		waitFor("three more syncs", func() bool { return syncs.Load() >= n+3 })
	}

	d, err := Start(Config{
		Listen: "127.0.0.1:0", Name: "cable-0", DeviceID: 1, App: "mesh", Shell: "two-way-core",
		Overlay: &OverlayConfig{
			Join: addr, IP: "10.254.0.1", Prefixes: []string{"10.200.1.0/24"},
			SyncEvery: 2 * time.Millisecond,
		},
		Logf: func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	peers := mgmt.NewClient(mgmt.TransportFunc(func(req []byte) ([]byte, error) { return rdv.Handle(req), nil }))
	register := func(i int) {
		t.Helper()
		if _, err := peers.OverlayRegister(mgmt.OverlayEndpoint{
			Name: fmt.Sprintf("cable-%d", i), IP: [4]byte{10, 254, 0, byte(i + 1)},
			MAC: [6]byte{0x02, 0xcc, 0, 0, 0, byte(i + 1)}, Mode: apps.MeshModeGRE,
			Prefixes: []mgmt.OverlayPrefix{{IP: [4]byte{10, 200, byte(i + 1), 0}, Len: 24}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	generation := func(g int) string { return fmt.Sprintf("synced to generation %d ", g) }

	// The daemon's own registration is generation 1, a second cable's 2.
	waitFor("generation 1", func() bool { return logged(generation(1)) > 0 })
	register(1)
	waitFor("generation 2", func() bool { return logged(generation(2)) > 0 })
	quiet()
	for g := 1; g <= 2; g++ {
		if n := logged(generation(g)); n != 1 {
			t.Errorf("generation %d logged %d times, want once", g, n)
		}
	}
	if n := logged("overlay sync:"); n != 0 {
		t.Fatalf("%d failed syncs logged while the rendezvous was up", n)
	}

	// Down: a third cable registers meanwhile, and every tick fails.
	srv.Close()
	register(2)
	waitFor("failed sync retried on the next tick", func() bool { return logged("overlay sync:") >= 2 })

	// Back on the same address: the next tick converges.
	srv = mgmt.NewServer(handle)
	if _, err := srv.Listen(addr); err != nil {
		t.Fatalf("rendezvous back on %s: %v", addr, err)
	}
	waitFor("generation 3", func() bool { return logged(generation(3)) > 0 })
	quiet()
	if n := logged(generation(3)); n != 1 {
		t.Errorf("generation 3 logged %d times, want once", n)
	}
	if got := meshPeers(t, d); len(got) != 2 {
		t.Errorf("datapath holds %d mesh peers after the rendezvous came back, want 2", len(got))
	}
}
