package apps

import (
	"encoding/binary"
	"net/netip"
	"slices"
	"strings"
	"testing"

	"flexsfp/internal/fpga"
	"flexsfp/internal/hls"
	"flexsfp/internal/packet"
	"flexsfp/internal/ppe"
)

// --- Telemetry -----------------------------------------------------------

func telemetryNode(t *testing.T, role string, id uint32) *telemetryApp {
	t.Helper()
	a := NewTelemetry()
	if err := a.Configure(mustJSON(t, TelemetryConfig{Role: role, DeviceID: id})); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestTelemetrySourceTransitSink(t *testing.T) {
	src := telemetryNode(t, TelemetrySource, 1)
	mid := telemetryNode(t, TelemetryTransit, 2)
	sink := telemetryNode(t, TelemetrySink, 3)

	frame := udpFrame(t, ipInt, ipSrv, 9, 10)
	orig := append([]byte(nil), frame...)

	_, f1 := run(src.prog.Handler, frame, ppe.DirEdgeToOptical)
	if len(f1) != len(orig)+4+packet.INTHopSize {
		t.Fatalf("source output = %d bytes", len(f1))
	}
	_, f2 := run(mid.prog.Handler, f1, ppe.DirEdgeToOptical)
	if len(f2) != len(f1)+packet.INTHopSize {
		t.Fatalf("transit output = %d bytes", len(f2))
	}
	_, f3 := run(sink.prog.Handler, f2, ppe.DirOpticalToEdge)
	if len(f3) != len(orig) {
		t.Fatalf("sink output = %d bytes, want original %d", len(f3), len(orig))
	}
	for i := range orig {
		if f3[i] != orig[i] {
			t.Fatal("frame corrupted through the telemetry path")
		}
	}

	paths := sink.Paths()
	if len(paths) != 1 {
		t.Fatalf("paths = %d", len(paths))
	}
	hops := paths[0].Hops
	if len(hops) != 3 {
		t.Fatalf("hops = %d, want 3 (src+transit+sink)", len(hops))
	}
	if hops[0].DeviceID != 1 || hops[1].DeviceID != 2 || hops[2].DeviceID != 3 {
		t.Errorf("device path = %d,%d,%d", hops[0].DeviceID, hops[1].DeviceID, hops[2].DeviceID)
	}
	// Draining clears.
	if len(sink.Paths()) != 0 {
		t.Error("Paths did not drain")
	}
}

func TestTelemetryTransitIgnoresPlainTraffic(t *testing.T) {
	mid := telemetryNode(t, TelemetryTransit, 2)
	frame := udpFrame(t, ipInt, ipSrv, 9, 10)
	orig := len(frame)
	_, out := run(mid.prog.Handler, frame, ppe.DirEdgeToOptical)
	if len(out) != orig {
		t.Error("transit modified uninstrumented traffic")
	}
}

func TestTelemetrySampling(t *testing.T) {
	a := NewTelemetry()
	if err := a.Configure(mustJSON(t, TelemetryConfig{
		Role: TelemetrySource, DeviceID: 1, SampleShift: 3, // 1-in-8
	})); err != nil {
		t.Fatal(err)
	}
	inserted := 0
	const flows = 800
	for i := 0; i < flows; i++ {
		frame := packet.MustBuild(packet.Spec{
			SrcMAC: macHost, DstMAC: macGW,
			SrcIP: ipInt, DstIP: ipSrv,
			SrcPort: uint16(i + 1), DstPort: 80,
		})
		_, out := run(a.prog.Handler, frame, ppe.DirEdgeToOptical)
		if len(out) > len(frame) {
			inserted++
		}
	}
	// Expect ≈100 of 800; allow a generous band.
	if inserted < 50 || inserted > 200 {
		t.Errorf("sampled %d of %d flows, want ≈100", inserted, flows)
	}
}

// TestTelemetryShimOverheadBounds pins the §3 claim that in-band telemetry
// comes "without incurring high overhead": a full 15-hop shim, measured on
// the wire the apps produce, costs at most 14% of goodput at MTU, and 1-in-8
// source sampling cuts that below 2%.
func TestTelemetryShimOverheadBounds(t *testing.T) {
	frame := packet.MustBuild(packet.Spec{
		SrcMAC: macHost, DstMAC: macGW,
		SrcIP: ipInt, DstIP: ipSrv,
		SrcPort: 9, DstPort: 10, PadTo: 1518,
	})
	_, out := run(telemetryNode(t, TelemetrySource, 1).prog.Handler, frame, ppe.DirEdgeToOptical)
	for id := uint32(2); id <= packet.INTMaxHops+1; id++ {
		_, out = run(telemetryNode(t, TelemetryTransit, id).prog.Handler, out, ppe.DirEdgeToOptical)
	}
	shim := len(out) - len(frame)
	if want := 4 + packet.INTHopSize*packet.INTMaxHops; shim != want {
		t.Fatalf("15-hop shim = %d bytes, want %d", shim, want)
	}
	overhead := float64(shim) / float64(len(out))
	if overhead > 0.14 {
		t.Errorf("MTU overhead with %d hops = %.3f, want <= 0.14", packet.INTMaxHops, overhead)
	}
	if sampled := overhead / 8; sampled > 0.02 {
		t.Errorf("1-in-8 sampled MTU overhead = %.4f, want <= 0.02", sampled)
	}
}

// The telemetry handler reads the shim through the parser view: source
// and transit allocate nothing, and a sink allocates only the recorded
// PathRecord's hop slice. Each run feeds a fresh pool buffer, since every
// role edits the frame in place.
func TestTelemetryHandlerZeroAlloc(t *testing.T) {
	plain := udpFrame(t, ipInt, ipSrv, 9, 10)
	_, oneHop := run(telemetryNode(t, TelemetrySource, 1).prog.Handler, poolCopy(plain), ppe.DirEdgeToOptical)
	oneHop = append([]byte(nil), oneHop...)
	_, twoHops := run(telemetryNode(t, TelemetryTransit, 2).prog.Handler, poolCopy(oneHop), ppe.DirEdgeToOptical)
	twoHops = append([]byte(nil), twoHops...)

	for _, tc := range []struct {
		role      string
		in        []byte
		wantLen   int
		maxAllocs float64
	}{
		{TelemetrySource, plain, len(oneHop), 0},
		{TelemetryTransit, oneHop, len(twoHops), 0},
		{TelemetrySink, twoHops, len(plain), 1},
	} {
		a := telemetryNode(t, tc.role, 3)
		ctx := &ppe.Ctx{Dir: ppe.DirEdgeToOptical, TimestampNs: 1}
		var got int
		if n := testing.AllocsPerRun(200, func() {
			ctx.Data = poolCopy(tc.in)
			a.prog.Handler.HandlePacket(ctx)
			got = len(ctx.Data)
			packet.PutBuffer(ctx.Data)
		}); n > tc.maxAllocs {
			t.Errorf("%s: %.1f allocs/op, want <= %.0f", tc.role, n, tc.maxAllocs)
		}
		if got != tc.wantLen {
			t.Errorf("%s: output %dB, want %dB", tc.role, got, tc.wantLen)
		}
	}
}

func TestTelemetryConfigValidation(t *testing.T) {
	a := NewTelemetry()
	if err := a.Configure(nil); err == nil {
		t.Error("missing config accepted")
	}
	if err := a.Configure(mustJSON(t, TelemetryConfig{Role: "observer"})); err == nil {
		t.Error("unknown role accepted")
	}
}

// --- NetFlow ---------------------------------------------------------------

type flowStat struct{ packets, bytes uint64 }

// netflowStats reads every learned flow's counters through the "flows"
// table and the "flowstats" bank: the state table-dump and counter reads
// give the control plane.
func netflowStats(a *netflowApp) []flowStat {
	var out []flowStat
	for _, e := range a.flows.Snapshot() {
		pkts, bytes := a.stats.Read(int(binary.BigEndian.Uint16(e.Value)))
		out = append(out, flowStat{pkts, bytes})
	}
	return out
}

func TestNetFlowAccounting(t *testing.T) {
	a := NewNetFlow()
	if err := a.Configure(nil); err != nil {
		t.Fatal(err)
	}
	// Two flows: 3 packets and 1 packet.
	for i := 0; i < 3; i++ {
		f := udpFrame(t, ipInt, ipSrv, 1111, 80)
		run(a.prog.Handler, f, ppe.DirEdgeToOptical)
	}
	f2 := udpFrame(t, ipInt, ipSrv, 2222, 80)
	run(a.prog.Handler, f2, ppe.DirEdgeToOptical)

	stats := netflowStats(a)
	if len(stats) != 2 {
		t.Fatalf("flows = %d, want 2", len(stats))
	}
	var counts []uint64
	for _, s := range stats {
		counts = append(counts, s.packets)
	}
	if !(counts[0] == 3 && counts[1] == 1 || counts[0] == 1 && counts[1] == 3) {
		t.Errorf("packet counts = %v", counts)
	}
	learned, _ := a.meta.Read(NFLearned)
	matched, _ := a.meta.Read(NFMatched)
	if learned != 2 || matched != 2 {
		t.Errorf("learned=%d matched=%d", learned, matched)
	}
}

func TestNetFlowBytesAccounting(t *testing.T) {
	a := NewNetFlow()
	f := udpFrame(t, ipInt, ipSrv, 1, 2) // 64 bytes
	run(a.prog.Handler, f, ppe.DirEdgeToOptical)
	run(a.prog.Handler, f, ppe.DirEdgeToOptical)
	stats := netflowStats(a)
	if len(stats) != 1 || stats[0].bytes != 128 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestNetFlowIgnoresNonIP(t *testing.T) {
	a := NewNetFlow()
	arp := make([]byte, 64)
	arp[12], arp[13] = 0x08, 0x06
	run(a.prog.Handler, arp, ppe.DirEdgeToOptical)
	if len(netflowStats(a)) != 0 {
		t.Error("non-IP traffic created a flow")
	}
}

// --- Rate limiting ---------------------------------------------------------

func TestRateLimitPerSource(t *testing.T) {
	a := NewRateLimit()
	cfg := RateLimitConfig{Sources: []RateLimitRule{
		// 512 kb/s with one-frame burst.
		{SrcIP: ipInt.String(), RateBps: 512_000, BurstBits: 512},
	}}
	if err := a.Configure(mustJSON(t, cfg)); err != nil {
		t.Fatal(err)
	}
	frame := udpFrame(t, ipInt, ipSrv, 1, 2) // 64 B = 512 bits
	// First frame conforms (full bucket); immediate second exceeds.
	ctx := &ppe.Ctx{Data: frame, Dir: ppe.DirEdgeToOptical, TimestampNs: 0}
	if a.prog.Handler.HandlePacket(ctx) != ppe.VerdictPass {
		t.Error("first frame dropped")
	}
	ctx = &ppe.Ctx{Data: frame, Dir: ppe.DirEdgeToOptical, TimestampNs: 1000}
	if a.prog.Handler.HandlePacket(ctx) != ppe.VerdictDrop {
		t.Error("burst-exceeding frame passed")
	}
	// After 1 ms (512 bits refilled), it conforms again.
	ctx = &ppe.Ctx{Data: frame, Dir: ppe.DirEdgeToOptical, TimestampNs: 1_001_000}
	if a.prog.Handler.HandlePacket(ctx) != ppe.VerdictPass {
		t.Error("refilled frame dropped")
	}
	// Unlisted sources pass untouched.
	other := udpFrame(t, ipSrv, ipInt, 1, 2)
	ctx = &ppe.Ctx{Data: other, Dir: ppe.DirEdgeToOptical, TimestampNs: 1_001_500}
	if a.prog.Handler.HandlePacket(ctx) != ppe.VerdictPass {
		t.Error("unmatched source dropped without default meter")
	}
	unmatched, _ := a.ctr.Read(RLUnmatched)
	if unmatched != 1 {
		t.Errorf("unmatched counter = %d", unmatched)
	}
}

func TestRateLimitDefaultMeter(t *testing.T) {
	a := NewRateLimit()
	cfg := RateLimitConfig{DefaultRateBps: 512_000, DefaultBurstBits: 512}
	if err := a.Configure(mustJSON(t, cfg)); err != nil {
		t.Fatal(err)
	}
	frame := udpFrame(t, ipSrv, ipInt, 1, 2)
	ctx := &ppe.Ctx{Data: frame, Dir: ppe.DirEdgeToOptical, TimestampNs: 0}
	if a.prog.Handler.HandlePacket(ctx) != ppe.VerdictPass {
		t.Error("first default-metered frame dropped")
	}
	ctx = &ppe.Ctx{Data: frame, Dir: ppe.DirEdgeToOptical, TimestampNs: 100}
	if a.prog.Handler.HandlePacket(ctx) != ppe.VerdictDrop {
		t.Error("default meter did not police")
	}
}

func TestRateLimitConfigValidation(t *testing.T) {
	a := NewRateLimit()
	cfg := RateLimitConfig{Sources: []RateLimitRule{{SrcIP: "nope", RateBps: 1}}}
	if err := a.Configure(mustJSON(t, cfg)); err == nil {
		t.Error("bad source IP accepted")
	}
}

// --- DoH blocking ------------------------------------------------------------

func dnsQueryFrame(t *testing.T, qname string) []byte {
	t.Helper()
	q := &packet.DNS{ID: 1, RD: true,
		Questions: []packet.DNSQuestion{{Name: qname, Type: packet.DNSTypeA, Class: packet.DNSClassIN}}}
	ip := &packet.IPv4{TTL: 64, Protocol: packet.IPProtocolUDP, SrcIP: ipInt, DstIP: ipSrv}
	udp := &packet.UDP{SrcPort: 5353, DstPort: packet.PortDNS}
	if err := udp.SetNetworkLayerForChecksum(ipInt, ipSrv); err != nil {
		t.Fatal(err)
	}
	buf := packet.NewSerializeBuffer()
	err := packet.SerializeLayers(buf, packet.SerializeOptions{FixLengths: true, ComputeChecksums: true},
		&packet.Ethernet{SrcMAC: macHost, DstMAC: macGW, EtherType: packet.EtherTypeIPv4},
		ip, udp, q)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out
}

func TestDoHBlocksDNSQueries(t *testing.T) {
	a := NewDoHBlock()
	cfg := DoHBlockConfig{BlockedDomains: []string{"ads.example"}}
	if err := a.Configure(mustJSON(t, cfg)); err != nil {
		t.Fatal(err)
	}
	if v, _ := run(a.prog.Handler, dnsQueryFrame(t, "ads.example"), ppe.DirEdgeToOptical); v != ppe.VerdictDrop {
		t.Error("exact blocked name passed")
	}
	if v, _ := run(a.prog.Handler, dnsQueryFrame(t, "tracker.ads.example"), ppe.DirEdgeToOptical); v != ppe.VerdictDrop {
		t.Error("subdomain of blocked name passed")
	}
	if v, _ := run(a.prog.Handler, dnsQueryFrame(t, "good.example"), ppe.DirEdgeToOptical); v != ppe.VerdictPass {
		t.Error("innocent query dropped")
	}
	blocked, _ := a.ctr.Read(DoHDNSBlocked)
	if blocked != 2 {
		t.Errorf("blocked counter = %d", blocked)
	}
}

func TestDoHBlocksResolverHTTPS(t *testing.T) {
	a := NewDoHBlock()
	cfg := DoHBlockConfig{ResolverIPs: []string{"1.1.1.1"}}
	if err := a.Configure(mustJSON(t, cfg)); err != nil {
		t.Fatal(err)
	}
	doh := packet.MustBuild(packet.Spec{
		SrcMAC: macHost, DstMAC: macGW,
		SrcIP: ipInt, DstIP: netip.MustParseAddr("1.1.1.1"),
		Proto: packet.IPProtocolTCP, SrcPort: 44444, DstPort: 443,
	})
	if v, _ := run(a.prog.Handler, doh, ppe.DirEdgeToOptical); v != ppe.VerdictDrop {
		t.Error("HTTPS to DoH resolver passed")
	}
	// HTTPS to anything else is untouched.
	web := packet.MustBuild(packet.Spec{
		SrcMAC: macHost, DstMAC: macGW,
		SrcIP: ipInt, DstIP: ipSrv,
		Proto: packet.IPProtocolTCP, SrcPort: 44444, DstPort: 443,
	})
	if v, _ := run(a.prog.Handler, web, ppe.DirEdgeToOptical); v != ppe.VerdictPass {
		t.Error("regular HTTPS dropped")
	}
}

func TestDoHCaseInsensitive(t *testing.T) {
	a := NewDoHBlock()
	if err := a.BlockDomain("Ads.Example"); err != nil {
		t.Fatal(err)
	}
	if v, _ := run(a.prog.Handler, dnsQueryFrame(t, "ADS.example"), ppe.DirEdgeToOptical); v != ppe.VerdictDrop {
		t.Error("case variant passed")
	}
}

func TestDoHIgnoresResponses(t *testing.T) {
	a := NewDoHBlock()
	if err := a.BlockDomain("ads.example"); err != nil {
		t.Fatal(err)
	}
	// A response (QR=1) for the blocked name still passes: queries are
	// filtered at the source side.
	r := &packet.DNS{ID: 1, QR: true,
		Questions: []packet.DNSQuestion{{Name: "ads.example", Type: packet.DNSTypeA, Class: packet.DNSClassIN}}}
	ip := &packet.IPv4{TTL: 64, Protocol: packet.IPProtocolUDP, SrcIP: ipSrv, DstIP: ipInt}
	udp := &packet.UDP{SrcPort: packet.PortDNS, DstPort: 5353}
	_ = udp.SetNetworkLayerForChecksum(ipSrv, ipInt)
	buf := packet.NewSerializeBuffer()
	_ = packet.SerializeLayers(buf, packet.SerializeOptions{FixLengths: true, ComputeChecksums: true},
		&packet.Ethernet{SrcMAC: macGW, DstMAC: macHost, EtherType: packet.EtherTypeIPv4}, ip, udp, r)
	frame := append([]byte(nil), buf.Bytes()...)
	if v, _ := run(a.prog.Handler, frame, ppe.DirOpticalToEdge); v != ppe.VerdictPass {
		t.Error("response dropped")
	}
}

// The dohblock handler runs the same zero-alloc name match as dnsblock:
// no frame it sees allocates, DNS or not.
func TestDoHHandlerZeroAlloc(t *testing.T) {
	a := NewDoHBlock()
	cfg := DoHBlockConfig{BlockedDomains: []string{"ads.example"}, ResolverIPs: []string{"1.1.1.1"}}
	if err := a.Configure(mustJSON(t, cfg)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		frame []byte
		want  ppe.Verdict
	}{
		{"plain query", dnsQueryFrame(t, "good.example"), ppe.VerdictPass},
		{"blocked subdomain", dnsQueryFrame(t, "a.very.long.sub.domain.of.ads.example"), ppe.VerdictDrop},
		{"mixed case", dnsQueryFrame(t, "MiXeD.Example"), ppe.VerdictPass},
		{"https to blocked resolver", packet.MustBuild(packet.Spec{
			SrcMAC: macHost, DstMAC: macGW, SrcIP: ipInt, DstIP: netip.MustParseAddr("1.1.1.1"),
			Proto: packet.IPProtocolTCP, SrcPort: 44444, DstPort: 443,
		}), ppe.VerdictDrop},
		{"non-DNS", udpFrame(t, ipInt, ipSrv, 1000, 2000), ppe.VerdictPass},
	} {
		ctx := &ppe.Ctx{Dir: ppe.DirEdgeToOptical}
		var v ppe.Verdict
		if n := testing.AllocsPerRun(200, func() {
			ctx.Data = tc.frame
			v = a.handle(ctx)
		}); n != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", tc.name, n)
		}
		if v != tc.want {
			t.Errorf("%s: verdict %v, want %v", tc.name, v, tc.want)
		}
	}
}

// dnsPayloadFrame wraps a raw DNS message in a UDP query to port 53.
func dnsPayloadFrame(msg []byte) []byte {
	return packet.MustBuild(packet.Spec{
		SrcMAC: macHost, DstMAC: macGW, SrcIP: ipInt, DstIP: ipSrv,
		SrcPort: 5353, DstPort: packet.PortDNS, Payload: msg,
	})
}

// dnsWireName encodes a dotted name as uncompressed DNS labels.
func dnsWireName(name string) []byte {
	var b []byte
	for _, l := range strings.Split(name, ".") {
		b = append(append(b, byte(len(l))), l...)
	}
	return append(b, 0)
}

// dnsHeader is a query header with the given section counts.
func dnsHeader(qd, an uint16) []byte {
	return []byte{0, 1, 0x01, 0, byte(qd >> 8), byte(qd), byte(an >> 8), byte(an), 0, 0, 0, 0}
}

// anyQuestionBlocked is the verdict dohblock gave before it shared
// dnsblock's matcher: the whole message through the strict decoder, then
// every question's name and parent suffixes.
func anyQuestionBlocked(frame []byte, blocked ...string) bool {
	var v packet.View
	var d packet.DNS
	if !v.Parse(frame) || v.L7Off == 0 || d.DecodeFromBytes(frame[v.L7Off:]) != nil || d.QR {
		return false
	}
	for _, q := range d.Questions {
		for name := strings.ToLower(q.Name); ; {
			if slices.Contains(blocked, name) {
				return true
			}
			dot := strings.IndexByte(name, '.')
			if dot < 0 {
				break
			}
			name = name[dot+1:]
		}
	}
	return false
}

// dohblock reads only the first question, as dnsblock does. That changes
// its verdict on exactly these query shapes, none of which a resolver
// answers (RFC 9619 FORMERRs any QDCOUNT other than 1); the old column is
// recomputed with the strict decoder so the table cannot drift.
func TestDoHFirstQuestionOnlyVerdicts(t *testing.T) {
	blocked := []string{"ads.example", "ads"}
	typeClass := []byte{0, 1, 0, 1} // A, IN
	question := func(name string) []byte { return append(dnsWireName(name), typeClass...) }
	cat := func(parts ...[]byte) []byte { return slices.Concat(parts...) }

	for _, tc := range []struct {
		name     string
		msg      []byte
		old, new ppe.Verdict
	}{
		// QDCOUNT 2, blocked name only in the second question.
		{"blocked name in second question",
			cat(dnsHeader(2, 0), question("good.example"), question("ads.example")),
			ppe.VerdictDrop, ppe.VerdictPass},
		// "ads" then a pointer to offset 11, the zero low byte of ARCOUNT:
		// the decoder follows it to "ads", the view rejects a compressed
		// first name.
		{"compressed first QNAME",
			cat(dnsHeader(1, 0), []byte{3, 'a', 'd', 's', 0xc0, 11}, typeClass),
			ppe.VerdictDrop, ppe.VerdictPass},
		// The first question is intact, but the answer's name is a forward
		// compression pointer, which the strict decoder rejects.
		{"malformed message, intact first QNAME",
			cat(dnsHeader(1, 1), question("ads.example"), []byte{0xc0, 0xff}),
			ppe.VerdictPass, ppe.VerdictDrop},
		// No question at all: nothing to match, before and after.
		{"QDCOUNT 0", dnsHeader(0, 0), ppe.VerdictPass, ppe.VerdictPass},
	} {
		frame := dnsPayloadFrame(tc.msg)
		old := ppe.VerdictPass
		if anyQuestionBlocked(frame, blocked...) {
			old = ppe.VerdictDrop
		}
		if old != tc.old {
			t.Errorf("%s: strict-decoder verdict %v, table says %v", tc.name, old, tc.old)
		}
		a := NewDoHBlock()
		if err := a.Configure(mustJSON(t, DoHBlockConfig{BlockedDomains: blocked})); err != nil {
			t.Fatal(err)
		}
		if v, _ := run(a.prog.Handler, frame, ppe.DirEdgeToOptical); v != tc.new {
			t.Errorf("%s: verdict %v, want %v (was %v)", tc.name, v, tc.new, tc.old)
		}
	}
}

// --- Sanitizer --------------------------------------------------------------

func TestSanitizeChecksAndCounters(t *testing.T) {
	a := NewSanitize()
	cfg := SanitizeConfig{VerifyChecksums: true, DropFragments: true, MinTTL: 2}
	if err := a.Configure(mustJSON(t, cfg)); err != nil {
		t.Fatal(err)
	}
	good := udpFrame(t, ipInt, ipSrv, 1, 2)
	if v, _ := run(a.prog.Handler, good, ppe.DirEdgeToOptical); v != ppe.VerdictPass {
		t.Error("healthy packet dropped")
	}

	// Corrupt the IPv4 checksum field directly.
	bad := udpFrame(t, ipInt, ipSrv, 1, 2)
	bad[14+10] ^= 0xff
	if v, _ := run(a.prog.Handler, bad, ppe.DirEdgeToOptical); v != ppe.VerdictDrop {
		t.Error("bad checksum passed")
	}

	// Fragment.
	frag := packet.MustBuild(packet.Spec{
		SrcMAC: macHost, DstMAC: macGW, SrcIP: ipInt, DstIP: ipSrv, SrcPort: 1, DstPort: 2,
	})
	frag[14+6] = 0x20 // MF flag
	// Fix the checksum so only the fragment check fires.
	frag[14+10], frag[14+11] = 0, 0
	cs := packet.Checksum(frag[14 : 14+20])
	frag[14+10], frag[14+11] = byte(cs>>8), byte(cs)
	if v, _ := run(a.prog.Handler, frag, ppe.DirEdgeToOptical); v != ppe.VerdictDrop {
		t.Error("fragment passed")
	}

	// TTL below minimum.
	low := packet.MustBuild(packet.Spec{
		SrcMAC: macHost, DstMAC: macGW, SrcIP: ipInt, DstIP: ipSrv,
		SrcPort: 1, DstPort: 2, TTL: 1,
	})
	if v, _ := run(a.prog.Handler, low, ppe.DirEdgeToOptical); v != ppe.VerdictDrop {
		t.Error("low-TTL packet passed")
	}

	// Spoofed src == dst.
	spoof := udpFrame(t, ipSrv, ipSrv, 1, 2)
	if v, _ := run(a.prog.Handler, spoof, ppe.DirEdgeToOptical); v != ppe.VerdictDrop {
		t.Error("land-attack packet passed")
	}

	for idx, want := range map[int]uint64{
		SanPassed: 1, SanBadChecksum: 1, SanFragment: 1, SanLowTTL: 1, SanSpoofedSrc: 1,
	} {
		if got, _ := a.ctr.Read(idx); got != want {
			t.Errorf("counter[%d] = %d, want %d", idx, got, want)
		}
	}
}

func TestSanitizeIPv6Policy(t *testing.T) {
	a := NewSanitize()
	if err := a.Configure(mustJSON(t, SanitizeConfig{DropIPv6: true})); err != nil {
		t.Fatal(err)
	}
	v6 := packet.MustBuild(packet.Spec{
		SrcMAC: macHost, DstMAC: macGW,
		SrcIP: netip.MustParseAddr("2001:db8::1"), DstIP: netip.MustParseAddr("2001:db8::2"),
		SrcPort: 1, DstPort: 2,
	})
	if v, _ := run(a.prog.Handler, v6, ppe.DirEdgeToOptical); v != ppe.VerdictDrop {
		t.Error("IPv6 passed under DropIPv6 policy")
	}
	v4 := udpFrame(t, ipInt, ipSrv, 1, 2)
	if v, _ := run(a.prog.Handler, v4, ppe.DirEdgeToOptical); v != ppe.VerdictPass {
		t.Error("IPv4 dropped under IPv6-only policy")
	}
}

// --- Registry & synthesis ----------------------------------------------------

func TestRegistryHasAllApps(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"nat", "acl", "vlan", "tunnel", "lb",
		"telemetry", "netflow", "ratelimit", "dohblock", "sanitize"} {
		app, err := r.New(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if app.Program().Name != name {
			t.Errorf("%s: program named %q", name, app.Program().Name)
		}
		if err := app.Program().Validate(); err != nil {
			t.Errorf("%s: invalid program: %v", name, err)
		}
	}
}

func TestAllAppsFitMPF200T(t *testing.T) {
	// Every catalog app must compile onto the prototype device at the
	// paper's operating point — the whole premise of the cheap path.
	r := NewRegistry()
	for _, name := range r.Names() {
		app, err := r.New(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := hls.Compile(app.Program(), hls.Options{
			Device: fpga.MPF200T, ClockHz: 156_250_000, DatapathBits: 64,
		})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !d.Fit.Fits {
			t.Errorf("%s does not fit the MPF200T (limited by %s)", name, d.Fit.Limiting)
		}
		if d.Fit.Utilization.Max() > 90 {
			t.Errorf("%s uses %.0f%% of the device", name, d.Fit.Utilization.Max())
		}
	}
}
