package trafficgen

import (
	"math"
	"slices"
	"strings"
	"testing"

	"flexsfp/internal/netsim"
	"flexsfp/internal/packet"
)

var (
	gMacA = packet.MustMAC("02:00:00:00:00:0a")
	gMacB = packet.MustMAC("02:00:00:00:00:0b")
)

func TestConstantRate(t *testing.T) {
	sim := netsim.New(1)
	var got int
	g := New(sim, Config{PPS: 1e6, SrcMAC: gMacA, DstMAC: gMacB}, func(b []byte) bool {
		got++
		return true
	})
	g.Run(1000)
	sim.Run()
	if got != 1000 || g.Sent != 1000 {
		t.Errorf("got %d frames, sent %d", got, g.Sent)
	}
	// 1000 frames at 1 Mpps = 1 ms.
	if math.Abs(sim.Now().Seconds()-0.001) > 0.0001 {
		t.Errorf("finished at %v", sim.Now())
	}
}

func TestFixedSizeFrames(t *testing.T) {
	sim := netsim.New(1)
	g := New(sim, Config{
		PPS: 1e6, Sizes: []IMIXEntry{{Size: 128, Weight: 1}},
		SrcMAC: gMacA, DstMAC: gMacB,
	}, func(b []byte) bool {
		if len(b) != 128 {
			t.Fatalf("frame size = %d", len(b))
		}
		return true
	})
	g.Run(50)
	sim.Run()
}

func TestIMIXDistribution(t *testing.T) {
	sim := netsim.New(2)
	sizes := map[int]int{}
	g := New(sim, Config{
		PPS: 1e6, Sizes: SimpleIMIX(), SrcMAC: gMacA, DstMAC: gMacB,
	}, func(b []byte) bool {
		sizes[len(b)]++
		return true
	})
	g.Run(12000)
	sim.Run()
	// 7:4:1 → ≈58%/33%/8%.
	total := 12000.0
	if f := float64(sizes[64]) / total; math.Abs(f-7.0/12) > 0.03 {
		t.Errorf("64B fraction = %.3f", f)
	}
	if f := float64(sizes[594]) / total; math.Abs(f-4.0/12) > 0.03 {
		t.Errorf("594B fraction = %.3f", f)
	}
	if f := float64(sizes[1518]) / total; math.Abs(f-1.0/12) > 0.03 {
		t.Errorf("1518B fraction = %.3f", f)
	}
}

func TestFlowsAreDistinctAndDecodable(t *testing.T) {
	sim := netsim.New(3)
	ports := map[uint16]bool{}
	g := New(sim, Config{
		PPS: 1e6, Flows: 16, SrcMAC: gMacA, DstMAC: gMacB,
	}, func(b []byte) bool {
		pkt := packet.NewPacket(b, packet.LayerTypeEthernet)
		if pkt.ErrorLayer() != nil {
			t.Fatal(pkt.ErrorLayer())
		}
		u := pkt.Layer(packet.LayerTypeUDP).(*packet.UDP)
		ports[u.SrcPort] = true
		return true
	})
	g.Run(500)
	sim.Run()
	if len(ports) != 16 {
		t.Errorf("distinct flows seen = %d, want 16", len(ports))
	}
}

func TestZipfSkew(t *testing.T) {
	sim := netsim.New(4)
	counts := map[uint16]int{}
	// One View is reused across frames — the zero-alloc decode idiom
	// consumers of the generator should follow.
	var v packet.View
	g := New(sim, Config{
		PPS: 1e6, Flows: 64, ZipfS: 1.2, SrcMAC: gMacA, DstMAC: gMacB,
	}, func(b []byte) bool {
		if !v.Parse(b) || v.Proto != packet.IPProtocolUDP {
			t.Fatal("generator frame does not parse as UDP")
		}
		counts[v.SrcPort]++
		packet.PutBuffer(b)
		return true
	})
	g.Run(5000)
	sim.Run()
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// The head flow should dominate far beyond uniform (5000/64 ≈ 78).
	if max < 500 {
		t.Errorf("head flow has %d packets; Zipf skew too weak", max)
	}
}

func TestRefusedCounting(t *testing.T) {
	sim := netsim.New(1)
	n := 0
	g := New(sim, Config{PPS: 1e6, SrcMAC: gMacA, DstMAC: gMacB}, func(b []byte) bool {
		n++
		return n%2 == 0
	})
	g.Run(100)
	sim.Run()
	if g.Refused != 50 {
		t.Errorf("refused = %d, want 50", g.Refused)
	}
}

func TestStop(t *testing.T) {
	sim := netsim.New(1)
	g := New(sim, Config{PPS: 1e6, SrcMAC: gMacA, DstMAC: gMacB}, func(b []byte) bool { return true })
	g.Run(0) // unbounded
	sim.ScheduleDetached(50*netsim.Microsecond, func() { g.Stop() })
	sim.Run()
	if g.Sent < 40 || g.Sent > 60 {
		t.Errorf("sent %d frames before stop, want ≈50", g.Sent)
	}
}

func TestJitterChangesSpacingButNotRate(t *testing.T) {
	sim := netsim.New(5)
	g := New(sim, Config{PPS: 1e6, Jitter: 0.5, SrcMAC: gMacA, DstMAC: gMacB},
		func(b []byte) bool { return true })
	g.Run(10000)
	sim.Run()
	rate := float64(g.Sent) / sim.Now().Seconds()
	if math.Abs(rate-1e6)/1e6 > 0.05 {
		t.Errorf("jittered rate = %.0f pps, want ≈1e6", rate)
	}
}

func TestGeneratorCopiesFrames(t *testing.T) {
	sim := netsim.New(1)
	var prev []byte
	g := New(sim, Config{PPS: 1e6, SrcMAC: gMacA, DstMAC: gMacB}, func(b []byte) bool {
		if prev != nil {
			prev[0] = 0xEE // mutate previous; must not affect next frame
		}
		if b[0] == 0xEE {
			t.Fatal("generator reused a mutated buffer")
		}
		prev = b
		return true
	})
	g.Run(10)
	sim.Run()
}

// TestNewRejectsNonFiniteRates: a non-finite PPS would pace one frame per
// simulated ns, and ZipfS = +Inf sends rand.Zipf's rejection loop round
// forever on the first draw, so New refuses both, like a PPS of 0.
func TestNewRejectsNonFiniteRates(t *testing.T) {
	for _, cfg := range []Config{
		{PPS: math.NaN()},
		{PPS: math.Inf(1)},
		{PPS: 1e6, Flows: 64, ZipfS: math.Inf(1)},
		{PPS: 1e6, Flows: 64, ZipfS: math.Inf(-1)},
		{PPS: 1e6, Flows: 64, ZipfS: math.NaN()},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted PPS %v, ZipfS %v", cfg.PPS, cfg.ZipfS)
				}
			}()
			New(netsim.New(1), cfg, func([]byte) bool { return true })
		}()
	}
}

// TestNewRejectsNonPositiveSizeWeights: a zero total weight made the first
// emission panic inside a simulator event with rand's "invalid argument to
// Intn", and a negative weight broke the size edges without a word, so New
// refuses both with its own message, as it does for template weights.
func TestNewRejectsNonPositiveSizeWeights(t *testing.T) {
	for _, sizes := range [][]IMIXEntry{
		{{64, 0}, {128, 0}},
		{{64, 1}, {128, 0}},
		{{64, 2}, {128, -1}},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "trafficgen: ") {
					t.Errorf("Sizes %v: New panicked with %q, want a trafficgen message", sizes, msg)
				}
			}()
			New(netsim.New(1), Config{PPS: 1e6, Sizes: sizes}, func([]byte) bool { return true })
		}()
	}
}

// TestTinyZipfSIsUniform: a ZipfS so small that 1+ZipfS == 1 draws flows
// as ZipfS = 0 does, from the same stream.
func TestTinyZipfSIsUniform(t *testing.T) {
	ports := func(zipfS float64) []uint16 {
		var out []uint16
		var v packet.View
		g := New(netsim.New(3), Config{PPS: 1e6, Flows: 64, ZipfS: zipfS}, func(b []byte) bool {
			if !v.Parse(b) {
				t.Fatal("generator frame does not parse")
			}
			out = append(out, v.SrcPort)
			packet.PutBuffer(b)
			return true
		})
		g.Run(200)
		g.sim.Run()
		return out
	}
	if tiny, zero := ports(1e-17), ports(0); !slices.Equal(tiny, zero) {
		t.Errorf("ZipfS 1e-17 draws %v, ZipfS 0 draws %v", tiny[:8], zero[:8])
	}
}
