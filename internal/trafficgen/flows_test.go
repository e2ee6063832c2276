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

	"flexsfp/internal/netsim"
	"flexsfp/internal/packet"
)

var (
	gSrc4 = netip.MustParseAddr("10.1.0.1")
	gDst4 = netip.MustParseAddr("10.2.0.1")
	gSrc6 = netip.MustParseAddr("2001:db8::1:0:1")
	gDst6 = netip.MustParseAddr("2001:db8::2:0:1")
)

// sourceFunc is a rand.Source that calls itself for every value.
type sourceFunc func() int64

func (f sourceFunc) Int63() int64 { return f() }
func (sourceFunc) Seed(int64)     {}

// emitEach runs cfg's generator for n frames and hands each emitted frame
// to check. The generator's draws are scripted so that frame i is flow
// and size class pick(i); cfg must draw flows uniformly, without jitter,
// and give every size class weight 1.
func emitEach(t *testing.T, cfg Config, n int, pick func(i int) (flow, size int), check func(flow, size int, frame []byte)) {
	t.Helper()
	var (
		i     int
		draws []int64
	)
	cfg.PPS = 1e6
	// For m < 2^31, rand.Intn(m) returns Int63()>>32 itself when it is
	// below m.
	cfg.Rand = rand.New(sourceFunc(func() int64 {
		if len(draws) == 0 {
			f, s := pick(i)
			if cfg.Flows > 1 {
				draws = append(draws, int64(f)<<32)
			}
			if len(cfg.Sizes) > 1 {
				draws = append(draws, int64(s)<<32)
			}
		}
		v := draws[0]
		draws = draws[1:]
		return v
	}))
	sim := netsim.New(1)
	g := New(sim, cfg, func(frame []byte) bool {
		f, s := pick(i)
		i++
		check(f, s, frame)
		packet.PutBuffer(frame)
		return true
	})
	g.Run(uint64(n))
	sim.Run()
	if i != n {
		t.Fatalf("%d frames emitted, want %d", i, n)
	}
}

// checkFramesMatchBuild compares every (flow, size) frame cfg's generator
// emits with packet.MustBuild of that flow's spec. Only every stride-th
// flow (and the last) is emitted.
func checkFramesMatchBuild(t *testing.T, cfg Config, stride int) {
	t.Helper()
	cfg.SrcMAC, cfg.DstMAC = gMacA, gMacB
	var flows []int
	for f := 0; f < cfg.Flows; f += stride {
		flows = append(flows, f)
	}
	if flows[len(flows)-1] != cfg.Flows-1 {
		flows = append(flows, cfg.Flows-1)
	}
	nSizes := len(cfg.Sizes)
	pick := func(i int) (int, int) { return flows[i/nSizes], i % nSizes }
	emitEach(t, cfg, len(flows)*nSizes, pick, func(f, s int, got []byte) {
		if want := packet.MustBuild(flowSpec(&cfg, f, cfg.Sizes[s].Size)); !bytes.Equal(got, want) {
			t.Fatalf("flow %d size %d:\n got %x\nwant %x", f, cfg.Sizes[s].Size, got, want)
		}
	})
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
	cfg.PPS = 1e6
	New(netsim.New(1), cfg, func([]byte) bool { return true })
}

// TestFlowFramesMatchBuild is the differential wall for the template
// path: every frame the generator emits, a flow's head and its size
// class's tail, equals what packet.Build makes of the same flow, across
// both address families, every protocol the generator builds, population
// sizes up to MaxFlows, and sizes from below the header length to a
// full-size frame. IPv6 × TCP puts its L4 checksum past byte 64. ICMPv4
// over IPv6 is checked to be refused instead.
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

// TestFlowsAtMaxAreDistinct: every flow of a full population has its own
// (source address, source port) pair, and one flow more panics.
func TestFlowsAtMaxAreDistinct(t *testing.T) {
	seen := make(map[[6]byte]bool, MaxFlows)
	var v packet.View
	pick := func(i int) (int, int) { return i, 0 }
	emitEach(t, Config{Flows: MaxFlows}, MaxFlows, pick, func(_, _ int, frame []byte) {
		if !v.Parse(frame) {
			t.Fatal("generator frame does not parse")
		}
		var key [6]byte
		copy(key[:4], frame[v.L3Off+12:v.L3Off+16])
		binary.BigEndian.PutUint16(key[4:], v.SrcPort)
		seen[key] = true
	})
	if len(seen) != MaxFlows {
		t.Errorf("%d distinct (source address, source port) pairs, want %d", len(seen), MaxFlows)
	}

	defer func() {
		if recover() == nil {
			t.Error("New accepted Flows = MaxFlows+1")
		}
	}()
	New(netsim.New(1), Config{PPS: 1e6, Flows: MaxFlows + 1}, func([]byte) bool { return true })
}

// TestNewAllocsIndependentOfFlows pins the template path's allocation
// count: building a flow population costs the same number of objects at
// any size, one head array per size class. The collector is off while it
// counts: a cycle that starts during New allocates objects of its own.
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

// TestNewPopulationUnder4MiB pins the population's memory: the NAT churn
// workload's generator, 16 384 Zipf flows with the 7:4:1 size mix, keeps
// one 64-byte head per flow and size class, 3 MiB, where full frames
// would take 36 MiB. No other test in the package runs alongside, so
// the process-wide byte count is New's own.
func TestNewPopulationUnder4MiB(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	sim := netsim.New(1)
	cfg := Config{PPS: 1e6, Sizes: SimpleIMIX(), Flows: 16384, ZipfS: 1.1, SrcMAC: gMacA, DstMAC: gMacB, Rand: rand.New(rand.NewSource(1))}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	New(sim, cfg, func([]byte) bool { return true })
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
		t.Errorf("New allocates %d bytes for 16384 flows × 3 size classes, want under 4 MiB", got)
	}
}

// FuzzFlowFramesVsBuild checks the frame the generator emits for one flow
// against packet.Build of that flow's spec.
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
		if cfg.DstPort == 0 {
			cfg.DstPort = 80 // what New makes of 0
		}
		n := int(size) % 2048
		if icmpOverIPv6(&cfg) {
			if _, err := packet.Build(flowSpec(&cfg, int(flow), n)); err == nil {
				t.Fatalf("packet.Build accepted ICMPv4 over IPv6: %+v", cfg)
			}
			return
		}
		cfg.Sizes, cfg.Flows = []IMIXEntry{{n, 1}}, int(flow)+1
		var got []byte
		pick := func(int) (int, int) { return int(flow), 0 }
		emitEach(t, cfg, 1, pick, func(_, _ int, frame []byte) { got = append(got, frame...) })
		if want := packet.MustBuild(flowSpec(&cfg, int(flow), n)); !bytes.Equal(got, want) {
			t.Fatalf("flow %d of %+v:\n got %x\nwant %x", flow, cfg, got, want)
		}
	})
}

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool
