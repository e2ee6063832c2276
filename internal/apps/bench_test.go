package apps

import (
	"encoding/json"
	"net/netip"
	"testing"

	"flexsfp/internal/packet"
	"flexsfp/internal/ppe"
)

// BenchmarkAppHandlers measures each catalog app's behavioral handler on
// a representative frame (simulation-side cost, one sub-benchmark per app).
func BenchmarkAppHandlers(b *testing.B) {
	configs := map[string]any{
		"nat":       NATConfig{Mappings: []NATMapping{{Internal: "10.1.0.1", External: "203.0.113.1"}}},
		"acl":       ACLConfig{Rules: []ACLRule{{DstPort: 22, Proto: 6, Deny: true, Priority: 1}}},
		"vlan":      VLANConfig{VLAN: 100},
		"tunnel":    TunnelConfig{Mode: "gre", LocalIP: "10.255.0.1", RemoteIP: "10.255.0.2", LocalMAC: "02:aa:aa:aa:aa:01", GatewayMAC: "02:aa:aa:aa:aa:02"},
		"lb":        LBConfig{VIP: "10.2.0.1", Backends: []LBBackend{{IP: "10.0.1.1", MAC: "02:be:00:00:00:01"}}},
		"telemetry": TelemetryConfig{Role: "source", DeviceID: 1},
		"netflow":   NetFlowConfig{},
		"ratelimit": RateLimitConfig{DefaultRateBps: 1e12, DefaultBurstBits: 1e9},
		"dohblock":  DoHBlockConfig{BlockedDomains: []string{"x.example"}},
		"sanitize":  SanitizeConfig{VerifyChecksums: true},
		"monitor":   MonitorConfig{},
		"xdp":       XDPConfig{Program: *CanonicalXDPProgram()},
	}
	tmpl := packet.MustBuild(packet.Spec{
		SrcMAC: packet.MustMAC("02:00:00:00:00:01"),
		DstMAC: packet.MustMAC("02:00:00:00:00:02"),
		SrcIP:  netip.MustParseAddr("10.1.0.1"),
		DstIP:  netip.MustParseAddr("10.2.0.1"),
		Proto:  packet.IPProtocolTCP, SrcPort: 1234, DstPort: 443,
		PadTo: 64,
	})
	registry := NewRegistry()
	for _, name := range []string{"nat", "acl", "vlan", "tunnel", "lb", "telemetry",
		"netflow", "ratelimit", "dohblock", "sanitize", "monitor", "xdp"} {
		b.Run(name, func(b *testing.B) {
			app, err := registry.New(name)
			if err != nil {
				b.Fatal(err)
			}
			cfg, _ := json.Marshal(configs[name])
			if err := app.Configure(cfg); err != nil {
				b.Fatal(err)
			}
			h := app.Program().Handler
			frame := append([]byte(nil), tmpl...)
			ctx := &ppe.Ctx{Data: frame, Dir: ppe.DirEdgeToOptical}
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			for i := 0; i < b.N; i++ {
				ctx.Data = frame
				ctx.TimestampNs = uint64(i) * 100
				h.HandlePacket(ctx)
			}
		})
	}
}
