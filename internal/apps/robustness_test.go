package apps

import (
	"math/rand"
	"testing"

	"flexsfp/internal/core"
	"flexsfp/internal/packet"
	"flexsfp/internal/ppe"
	"flexsfp/internal/xdp"
)

// configuredApps instantiates every catalog app with a working config,
// plus the second configs whose datapaths the first does not reach: the
// telemetry transit and sink, the tunnel's other modes, and a keyed GRE
// mesh endpoint that the wallFrames tunnel frames are addressed to.
func configuredApps(t *testing.T) map[string]core.App {
	t.Helper()
	r := NewRegistry()
	configs := map[string]any{
		"nat":       NATConfig{Mappings: []NATMapping{{Internal: "10.0.0.1", External: "203.0.113.1"}}},
		"acl":       ACLConfig{Rules: []ACLRule{{DstPort: 22, Proto: 6, Deny: true, Priority: 1}}},
		"vlan":      VLANConfig{VLAN: 100},
		"tunnel":    tunnelConfig(TunnelGRE),
		"lb":        lbConfig(4),
		"telemetry": TelemetryConfig{Role: TelemetrySource, DeviceID: 1},
		"netflow":   NetFlowConfig{},
		"ratelimit": RateLimitConfig{DefaultRateBps: 1e9, DefaultBurstBits: 1e6},
		"dohblock":  DoHBlockConfig{BlockedDomains: []string{"x.example"}},
		"sanitize":  SanitizeConfig{VerifyChecksums: true},
		"monitor":   MonitorConfig{},
		"xdp": XDPConfig{Program: xdp.Program{Name: "pass-all", Insns: []xdp.Insn{
			xdp.MovImm(0, xdp.ActPass), xdp.Exit(),
		}}},
		"mesh": MeshConfig{Mode: TunnelVXLAN, LocalIP: "10.254.0.1",
			LocalMAC: "02:cc:cc:cc:cc:01", VNI: 4242},
	}
	out := map[string]core.App{}
	for _, name := range r.Names() {
		app, err := r.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Configure(mustJSON(t, configs[name])); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = app
	}
	for _, extra := range []struct {
		label, name string
		config      any
	}{
		{"telemetry/transit", "telemetry", TelemetryConfig{Role: TelemetryTransit, DeviceID: 2}},
		{"telemetry/sink", "telemetry", TelemetryConfig{Role: TelemetrySink, DeviceID: 3}},
		{"tunnel/vxlan", "tunnel", tunnelConfig(TunnelVXLAN)},
		{"tunnel/ipip", "tunnel", tunnelConfig(TunnelIPIP)},
		{"mesh/gre", "mesh", MeshConfig{Mode: TunnelGRE, LocalIP: "10.255.0.1",
			LocalMAC: "02:cc:cc:cc:cc:01", GREKey: 99}},
	} {
		app, err := r.New(extra.name)
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Configure(mustJSON(t, extra.config)); err != nil {
			t.Fatalf("%s: %v", extra.label, err)
		}
		out[extra.label] = app
	}
	return out
}

// wallFrames are the valid non-DNS frames the truncation and bitflip
// walls start from: a TCP frame behind a VLAN tag, an INT-instrumented
// frame, and one frame per tunnel mode addressed to the canonical decap
// endpoint.
func wallFrames(t *testing.T) [][]byte {
	t.Helper()
	tcp := packet.MustBuild(packet.Spec{
		SrcMAC: macHost, DstMAC: macGW,
		VLANs: []uint16{7},
		SrcIP: ipInt, DstIP: ipSrv,
		Proto: packet.IPProtocolTCP, SrcPort: 1234, DstPort: 443,
		Payload: []byte("hello"),
	})
	_, instrumented := run(telemetryNode(t, TelemetrySource, 1).prog.Handler,
		udpFrame(t, ipInt, ipSrv, 9, 10), ppe.DirEdgeToOptical)
	return [][]byte{
		tcp, instrumented,
		encapTunnelFrame(TunnelGRE), encapTunnelFrame(TunnelVXLAN), encapTunnelFrame(TunnelIPIP),
	}
}

// Every app handler must survive arbitrary hostile bytes in both
// directions without panicking — the PPE sits on the raw wire.
func TestAllHandlersSurviveGarbage(t *testing.T) {
	appsByName := configuredApps(t)
	rng := rand.New(rand.NewSource(17))
	for name, app := range appsByName {
		h := app.Program().Handler
		for i := 0; i < 3000; i++ {
			n := rng.Intn(200)
			data := make([]byte, n)
			rng.Read(data)
			// Every third frame claims INT, so the shim readers see
			// garbage too.
			if i%3 == 0 && n >= 14 {
				data[12], data[13] = 0x88, 0xb6
			}
			ctx := &ppe.Ctx{Data: data, Dir: ppe.Direction(i % 2), TimestampNs: uint64(i * 100)}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s panicked on garbage input: %v", name, r)
					}
				}()
				h.HandlePacket(ctx)
			}()
		}
	}
}

// Every app handler must survive every truncation of a valid frame.
func TestAllHandlersSurviveTruncation(t *testing.T) {
	truncationWall(t, wallFrames(t))
}

// Truncations of a DNS query exercise the deep-parse (L7) paths.
func TestAllHandlersSurviveDNSTruncation(t *testing.T) {
	truncationWall(t, [][]byte{dnsQueryFrame(t, "deep.x.example")})
}

// truncationWall feeds every app handler every truncation of each frame,
// in both directions, and fails on the first panic.
func truncationWall(t *testing.T, frames [][]byte) {
	t.Helper()
	appsByName := configuredApps(t)
	for _, full := range frames {
		for name, app := range appsByName {
			h := app.Program().Handler
			for n := 0; n <= len(full); n++ {
				data := append([]byte(nil), full[:n]...)
				for _, dir := range []ppe.Direction{ppe.DirEdgeToOptical, ppe.DirOpticalToEdge} {
					ctx := &ppe.Ctx{Data: append([]byte(nil), data...), Dir: dir, TimestampNs: 1}
					func() {
						defer func() {
							if r := recover(); r != nil {
								t.Fatalf("%s panicked at truncation %d of a %dB frame: %v", name, n, len(full), r)
							}
						}()
						h.HandlePacket(ctx)
					}()
				}
			}
		}
	}
}

// Mutated (bit-flipped) valid frames exercise deeper parse paths.
func TestAllHandlersSurviveBitflips(t *testing.T) {
	appsByName := configuredApps(t)
	rng := rand.New(rand.NewSource(23))
	bases := append([][]byte{dnsQueryFrame(t, "deep.x.example")}, wallFrames(t)...)
	bases = append(bases, dnsQueryFrame(t, "x.example"))
	for name, app := range appsByName {
		h := app.Program().Handler
		for i := 0; i < 2000; i++ {
			base := bases[i%len(bases)]
			mut := append([]byte(nil), base...)
			for k := 0; k < 1+rng.Intn(5); k++ {
				mut[rng.Intn(len(mut))] ^= 1 << rng.Intn(8)
			}
			ctx := &ppe.Ctx{Data: mut, Dir: ppe.Direction(i % 2), TimestampNs: uint64(i)}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s panicked on bitflipped frame: %v", name, r)
					}
				}()
				h.HandlePacket(ctx)
			}()
		}
	}
}
