package trafficgen

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"flexsfp/internal/netsim"
	"flexsfp/internal/packet"
)

var (
	gSrc4 = netip.MustParseAddr("10.1.0.1")
	gDst4 = netip.MustParseAddr("10.2.0.1")
	gSrc6 = netip.MustParseAddr("2001:db8::1:0:1")
	gDst6 = netip.MustParseAddr("2001:db8::2:0:1")
)

// flowFrames builds a generator for cfg and returns its frame table.
func flowFrames(cfg Config) [][]byte {
	cfg.PPS = 1e6
	return New(netsim.New(1), cfg, func([]byte) bool { return true }).frames
}

// checkFramesMatchBuild compares every (flow, size) frame of cfg's
// generator with packet.MustBuild of that flow's spec, and checks that
// every frame starts on a 64-byte boundary. Only every stride-th flow (and
// the last) is compared.
func checkFramesMatchBuild(t *testing.T, cfg Config, stride int) {
	t.Helper()
	cfg.SrcMAC, cfg.DstMAC = gMacA, gMacB
	frames := flowFrames(cfg)
	if len(frames) != cfg.Flows*len(cfg.Sizes) {
		t.Fatalf("%d frames, want %d", len(frames), cfg.Flows*len(cfg.Sizes))
	}
	for f := 0; f < cfg.Flows; f++ {
		if f%stride != 0 && f != cfg.Flows-1 {
			continue
		}
		for s, e := range cfg.Sizes {
			got := frames[f*len(cfg.Sizes)+s]
			if want := packet.MustBuild(flowSpec(&cfg, f, e.Size)); !bytes.Equal(got, want) {
				t.Fatalf("flow %d size %d:\n got %x\nwant %x", f, e.Size, got, want)
			}
			if addr := uintptr(unsafe.Pointer(unsafe.SliceData(got))); addr%64 != 0 {
				t.Fatalf("flow %d size %d: frame at %#x, not on a 64-byte boundary", f, e.Size, addr)
			}
		}
	}
}

// icmpOverIPv6 reports whether cfg asks for ICMPv4 inside IPv6, a frame
// packet.Build rejects, so no generator can be built for it.
func icmpOverIPv6(cfg *Config) bool {
	return cfg.Proto == packet.IPProtocolICMPv4 && cfg.SrcIP.Is6()
}

// checkRejected checks that packet.Build refuses every size class of
// cfg's last flow and that New panics rather than build the population.
func checkRejected(t *testing.T, cfg Config) {
	t.Helper()
	for _, e := range cfg.Sizes {
		if _, err := packet.Build(flowSpec(&cfg, cfg.Flows-1, e.Size)); err == nil {
			t.Fatalf("size %d: packet.Build accepted ICMPv4 over IPv6", e.Size)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("New built a generator for ICMPv4 over IPv6")
		}
	}()
	flowFrames(cfg)
}

// TestFlowFramesMatchBuild is the differential wall for the template
// path: every frame New writes equals what packet.Build makes of the same
// flow, across both address families, every protocol the generator
// builds, population sizes up to MaxFlows, and sizes from below the
// header length to a full-size frame. ICMPv4 over IPv6 is checked to be
// refused instead.
func TestFlowFramesMatchBuild(t *testing.T) {
	// 20 is below every header length: the frame is headers only.
	sizes := []IMIXEntry{{20, 1}, {64, 1}, {594, 1}, {1518, 1}}
	stride := 1 // every flow; under -race, a sample
	if raceEnabled {
		stride = 61
	}
	for _, fam := range []struct {
		name     string
		src, dst netip.Addr
	}{{"ipv4", gSrc4, gDst4}, {"ipv6", gSrc6, gDst6}} {
		for _, proto := range []packet.IPProtocol{packet.IPProtocolUDP, packet.IPProtocolTCP, packet.IPProtocolICMPv4} {
			for _, flows := range []int{1, 32, 16384, MaxFlows} {
				cfg := Config{Sizes: sizes, Flows: flows, SrcIP: fam.src, DstIP: fam.dst, DstPort: 443, Proto: proto}
				t.Run(fmt.Sprintf("%s/%v/%d", fam.name, proto, flows), func(t *testing.T) {
					t.Parallel()
					if icmpOverIPv6(&cfg) {
						checkRejected(t, cfg)
						return
					}
					checkFramesMatchBuild(t, cfg, stride)
				})
			}
		}
	}

	// A UDP checksum that computes to 0 goes out as 0xFFFF (RFC 768).
	// Varying the destination port walks flow 7's checksum through every
	// value, so one port in the 16-bit range makes it 0.
	t.Run("udp-zero-checksum", func(t *testing.T) {
		cfg := Config{Sizes: []IMIXEntry{{64, 1}}, Flows: 32, SrcIP: gSrc4, DstIP: gDst4, Proto: packet.IPProtocolUDP}
		const flow, csumOff = 7, 14 + 20 + 6
		for cfg.DstPort = 1; cfg.DstPort != 0; cfg.DstPort++ {
			if binary.BigEndian.Uint16(packet.MustBuild(flowSpec(&cfg, flow, 64))[csumOff:]) == 0xffff {
				break
			}
		}
		if cfg.DstPort == 0 {
			t.Fatal("no destination port gives flow 7 a zero UDP checksum")
		}
		checkFramesMatchBuild(t, cfg, 1)
	})
}

// TestFinishSumMatchesChecksum: write adds up to three 16-bit partial
// sums, and some totals (0x1FFFF) need a second fold.
func TestFinishSumMatchesChecksum(t *testing.T) {
	for _, words := range [][3]uint16{{0xffff, 0xffff, 1}, {0xffff, 0xffff, 0xffff}, {0x8000, 0x8000, 0}, {1, 0, 0}} {
		var b [6]byte
		var sum uint32
		for i, w := range words {
			binary.BigEndian.PutUint16(b[2*i:], w)
			sum += uint32(w)
		}
		if got, want := finishSum(sum), packet.Checksum(b[:]); got != want {
			t.Errorf("finishSum(%#x) = %#04x, packet.Checksum = %#04x", sum, got, want)
		}
	}
}

// TestFlowsAtMaxAreDistinct: every flow of a full population has its own
// (source address, source port) pair, and one flow more panics.
func TestFlowsAtMaxAreDistinct(t *testing.T) {
	seen := make(map[[6]byte]bool, MaxFlows)
	var v packet.View
	for _, frame := range flowFrames(Config{Flows: MaxFlows}) {
		if !v.Parse(frame) {
			t.Fatal("generator frame does not parse")
		}
		var key [6]byte
		copy(key[:4], frame[v.L3Off+12:v.L3Off+16])
		binary.BigEndian.PutUint16(key[4:], v.SrcPort)
		seen[key] = true
	}
	if len(seen) != MaxFlows {
		t.Errorf("%d distinct (source address, source port) pairs, want %d", len(seen), MaxFlows)
	}

	defer func() {
		if recover() == nil {
			t.Error("New accepted Flows = MaxFlows+1")
		}
	}()
	flowFrames(Config{Flows: MaxFlows + 1})
}

// TestNewAllocsIndependentOfFlows pins the template path's allocation
// count: building a flow population costs the same number of objects at
// any size, one backing array per size class. The collector is off while
// it counts: a cycle that starts during New allocates objects of its own.
func TestNewAllocsIndependentOfFlows(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(flows int) float64 {
		sim := netsim.New(1)
		cfg := Config{PPS: 1e6, Sizes: SimpleIMIX(), Flows: flows, ZipfS: 1.1, SrcMAC: gMacA, DstMAC: gMacB, Rand: rand.New(rand.NewSource(1))}
		sink := func([]byte) bool { return true }
		n := testing.AllocsPerRun(1, func() { New(sim, cfg, sink) })
		runtime.GC()
		return n
	}
	if small, large := allocs(32), allocs(16384); small != large {
		t.Errorf("New allocates %v objects at 32 flows, %v at 16384", small, large)
	}
}

// FuzzFlowFramesVsBuild checks one flow's frame written from its size
// class's template against packet.Build of that flow's spec.
func FuzzFlowFramesVsBuild(f *testing.F) {
	// Flow 7 of this configuration has a UDP checksum that computes to 0
	// (see TestFlowFramesMatchBuild).
	f.Add(uint64(0), uint64(0x0a010001), uint64(0), uint64(0x0a020001), false, uint16(59297), uint8(0), uint16(64), uint16(7))
	f.Add(uint64(0x20010db800000000), uint64(0x0000000100000001), uint64(0x20010db800000000), uint64(0x0000000200000001), true, uint16(443), uint8(1), uint16(594), uint16(65535))
	f.Add(uint64(0), uint64(0xc0a80001), uint64(0), uint64(0x08080808), false, uint16(0), uint8(2), uint16(0), uint16(300))
	protos := []packet.IPProtocol{packet.IPProtocolUDP, packet.IPProtocolTCP, packet.IPProtocolICMPv4}
	f.Fuzz(func(t *testing.T, srcHi, srcLo, dstHi, dstLo uint64, v6 bool, dport uint16, proto uint8, size, flow uint16) {
		addr := func(hi, lo uint64) netip.Addr {
			if !v6 {
				var b [4]byte
				binary.BigEndian.PutUint32(b[:], uint32(lo))
				return netip.AddrFrom4(b)
			}
			var b [16]byte
			binary.BigEndian.PutUint64(b[:8], hi)
			binary.BigEndian.PutUint64(b[8:], lo)
			return netip.AddrFrom16(b)
		}
		cfg := Config{
			SrcMAC: gMacA, DstMAC: gMacB,
			SrcIP: addr(srcHi, srcLo), DstIP: addr(dstHi, dstLo),
			DstPort: dport, Proto: protos[int(proto)%len(protos)],
		}
		n := int(size) % 2048
		if icmpOverIPv6(&cfg) {
			if _, err := packet.Build(flowSpec(&cfg, int(flow), n)); err == nil {
				t.Fatalf("packet.Build accepted ICMPv4 over IPv6: %+v", cfg)
			}
			return
		}
		tmpl := newFlowTemplate(&cfg, n)
		got := make([]byte, len(tmpl.frame))
		tmpl.write(got, int(flow))
		if want := packet.MustBuild(flowSpec(&cfg, int(flow), n)); !bytes.Equal(got, want) {
			t.Fatalf("flow %d of %+v:\n got %x\nwant %x", flow, cfg, got, want)
		}
	})
}

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool
