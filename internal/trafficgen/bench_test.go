package trafficgen

import (
	"testing"

	"flexsfp/internal/netsim"
	"flexsfp/internal/packet"
)

// BenchmarkGenerate measures frame emission with a sink that consumes and
// immediately releases each buffer (the steady state of the line-rate and
// power experiments).
func BenchmarkGenerate(b *testing.B) {
	sim := netsim.New(1)
	var got uint64
	g := New(sim, Config{
		PPS:    10e6,
		SrcMAC: gMacA, DstMAC: gMacB,
	}, func(buf []byte) bool {
		got += uint64(len(buf))
		packet.PutBuffer(buf)
		return true
	})
	b.ReportAllocs()
	b.SetBytes(64)
	g.Run(uint64(b.N))
	b.ResetTimer()
	sim.Run()
	if got == 0 {
		b.Fatal("no frames")
	}
}

// BenchmarkGenerateIMIX measures emission with the 7:4:1 size mix and a
// 64-flow population (size + flow sampling on every frame).
func BenchmarkGenerateIMIX(b *testing.B) {
	sim := netsim.New(1)
	var got uint64
	g := New(sim, Config{
		PPS: 10e6, Sizes: SimpleIMIX(), Flows: 64,
		SrcMAC: gMacA, DstMAC: gMacB,
	}, func(buf []byte) bool {
		got += uint64(len(buf))
		packet.PutBuffer(buf)
		return true
	})
	b.ReportAllocs()
	g.Run(uint64(b.N))
	b.ResetTimer()
	sim.Run()
	if got == 0 {
		b.Fatal("no frames")
	}
}

// BenchmarkGenerateChurn measures emission for the NAT churn workload's
// population: 16 384 Zipf(1.1) flows with the 7:4:1 size mix, so every
// frame takes a Zipf draw, a size draw and a head-plus-tail copy.
func BenchmarkGenerateChurn(b *testing.B) {
	sim := netsim.New(1)
	var got uint64
	g := New(sim, Config{
		PPS: 10e6, Sizes: SimpleIMIX(), Flows: 16384, ZipfS: 1.1,
		SrcMAC: gMacA, DstMAC: gMacB,
	}, func(buf []byte) bool {
		got += uint64(len(buf))
		packet.PutBuffer(buf)
		return true
	})
	b.ReportAllocs()
	g.Run(uint64(b.N))
	b.ResetTimer()
	sim.Run()
	if got == 0 {
		b.Fatal("no frames")
	}
}

// BenchmarkNewFlows measures building a 16 384-flow Zipf population with
// the 7:4:1 size mix, the generator of the NAT churn workload: 49 152
// heads, written from three templates.
func BenchmarkNewFlows(b *testing.B) {
	sim := netsim.New(1)
	cfg := Config{
		PPS: 10e6, Sizes: SimpleIMIX(), Flows: 16384, ZipfS: 1.1,
		SrcMAC: gMacA, DstMAC: gMacB,
	}
	sink := func([]byte) bool { return true }
	b.ReportAllocs()
	for b.Loop() {
		New(sim, cfg, sink)
	}
}
