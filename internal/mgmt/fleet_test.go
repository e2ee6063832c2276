package mgmt

import (
	"strings"
	"sync"
	"testing"

	"flexsfp/internal/bitstream"
	"flexsfp/internal/core"
	"flexsfp/internal/hls"
	"flexsfp/internal/netsim"
)

// buildFleet provisions n modules, each with its own agent, joined into a
// Fleet through locked direct transports (the sim is single-threaded, so
// the fan-out goroutines must serialize against it).
func buildFleet(t *testing.T, n int) (*Fleet, []*core.Module, *netsim.Simulator, *sync.Mutex) {
	t.Helper()
	sim := netsim.New(1)
	var simMu sync.Mutex
	fleet := NewFleet()
	var mods []*core.Module
	for i := 0; i < n; i++ {
		reg := core.NewRegistry()
		reg.Register("stateful", newStatefulApp)
		m := core.NewModule(core.Config{
			Sim: sim, Name: nameFor(i), DeviceID: uint32(i + 1),
			Shell: hls.TwoWayCore, Registry: reg, AuthKey: fleetKey,
		})
		app := newStatefulApp()
		d, err := hls.Compile(app.Program(), hls.Options{ClockHz: 156_250_000, DatapathBits: 64})
		if err != nil {
			t.Fatal(err)
		}
		enc, _ := d.Bitstream.Encode()
		if _, err := m.Install(1, enc); err != nil {
			t.Fatal(err)
		}
		if err := m.BootSync(1); err != nil {
			t.Fatal(err)
		}
		agent := NewAgent(m)
		fleet.Add(nameFor(i), TransportFunc(func(req []byte) ([]byte, error) {
			simMu.Lock()
			defer simMu.Unlock()
			resp := agent.Handle(req)
			sim.Run() // drain any scheduled reboot work
			return resp, nil
		}))
		mods = append(mods, m)
	}
	return fleet, mods, sim, &simMu
}

func nameFor(i int) string { return string(rune('a'+i)) + "-port" }

func TestFleetPingAll(t *testing.T) {
	fleet, _, _, _ := buildFleet(t, 5)
	infos, outcomes := fleet.PingAll()
	if len(Failures(outcomes)) != 0 {
		t.Fatalf("failures: %+v", Failures(outcomes))
	}
	if len(infos) != 5 {
		t.Fatalf("infos = %d", len(infos))
	}
	for name, info := range infos {
		if !info.Running || info.Name != name {
			t.Errorf("%s: %+v", name, info)
		}
	}
	if got := fleet.Names(); len(got) != 5 || got[0] != "a-port" {
		t.Errorf("Names = %v", got)
	}
}

func TestFleetStatsAll(t *testing.T) {
	fleet, mods, sim, mu := buildFleet(t, 3)
	mu.Lock()
	mods[1].SetTx(core.PortOptical, func([]byte) {})
	mods[1].RxEdge(dataFrameB())
	sim.Run()
	mu.Unlock()
	stats, outcomes := fleet.StatsAll()
	if len(Failures(outcomes)) != 0 {
		t.Fatalf("failures: %+v", outcomes)
	}
	if stats["b-port"].Engine.In != 1 {
		t.Errorf("b-port engine.In = %d", stats["b-port"].Engine.In)
	}
	if stats["a-port"].Engine.In != 0 {
		t.Errorf("a-port engine.In = %d", stats["a-port"].Engine.In)
	}
}

func TestFleetPushAllRollout(t *testing.T) {
	fleet, mods, _, mu := buildFleet(t, 4)
	// New image version for the whole fleet.
	app := newStatefulApp()
	prog := app.Program()
	prog.Version = 9
	d, err := hls.Compile(prog, hls.Options{ClockHz: 156_250_000, DatapathBits: 64})
	if err != nil {
		t.Fatal(err)
	}
	enc, _ := d.Bitstream.Encode()
	signed := bitstream.Sign(enc, fleetKey)

	outcomes := fleet.PushAll(signed, 2, true)
	if len(Failures(outcomes)) != 0 {
		t.Fatalf("rollout failures: %+v", Failures(outcomes))
	}
	if s := Summary(outcomes); !strings.Contains(s, "4 ok, 0 failed of 4") {
		t.Errorf("summary = %q", s)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, m := range mods {
		if !m.Running() || m.ActiveSlot() != 2 {
			t.Errorf("%s: running=%v slot=%d", m.Name(), m.Running(), m.ActiveSlot())
		}
	}
}

func TestFleetPartialFailure(t *testing.T) {
	fleet, _, _, _ := buildFleet(t, 3)
	// One member with a wrong-key image source: sign with a bad key so
	// every module rejects, demonstrating failure reporting.
	app := newStatefulApp()
	d, _ := hls.Compile(app.Program(), hls.Options{ClockHz: 156_250_000, DatapathBits: 64})
	enc, _ := d.Bitstream.Encode()
	badSigned := bitstream.Sign(enc, []byte("not-the-fleet-key"))
	outcomes := fleet.PushAll(badSigned, 2, false)
	if len(Failures(outcomes)) != 3 {
		t.Fatalf("want all 3 to fail auth, got %+v", outcomes)
	}
	if s := Summary(outcomes); !strings.Contains(s, "0 ok, 3 failed") {
		t.Errorf("summary = %q", s)
	}
}

func TestFleetOverTCP(t *testing.T) {
	// Same sweep, but through real TCP listeners.
	fleetDirect, _, _, _ := buildFleet(t, 3)
	fleet := NewFleet()
	var servers []*Server
	for _, name := range fleetDirect.Names() {
		c := fleetDirect.members[name]
		// Re-serve each member's transport over TCP.
		srv := NewServer(func(req []byte) []byte {
			resp, err := c.t.Do(req)
			if err != nil {
				return Message{Type: MsgError, Body: errorBody(CodeOpFailed, err.Error())}.Encode()
			}
			return resp
		})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		tr, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		fleet.Add(name, tr)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	infos, outcomes := fleet.PingAll()
	if len(Failures(outcomes)) != 0 || len(infos) != 3 {
		t.Fatalf("TCP sweep: %+v", outcomes)
	}
}

func dataFrameB() []byte {
	b := make([]byte, 64)
	copy(b[0:6], []byte{2, 0, 0, 0, 0, 2})
	copy(b[6:12], []byte{2, 0, 0, 0, 0, 1})
	b[12], b[13] = 0x08, 0x00
	b[14] = 0x45
	b[17] = 50 // total length
	b[22] = 64 // ttl
	b[23] = 17 // udp
	return b
}
