// Package trafficgen generates deterministic synthetic workloads for the
// experiments: fixed-size streams at a target rate, the canonical IMIX
// blend, Zipf-distributed flow populations, and the per-subscriber access
// traffic (DNS + HTTPS + UDP) of the §2.1 telecom scenario, and the
// mixed-protocol profiles ProfileTemplates builds as weighted frame
// templates. It stands in for the paper's line-rate traffic testers.
package trafficgen

import (
	"encoding/binary"
	"math"
	"math/rand"
	"net/netip"

	"flexsfp/internal/netsim"
	"flexsfp/internal/packet"
	"flexsfp/internal/telemetry"
)

// PutBuffer is packet.PutBuffer, kept for the benchmark's sinks.
var PutBuffer = packet.PutBuffer

// IMIXEntry is one component of a size mix.
type IMIXEntry struct {
	Size   int
	Weight int
}

// SimpleIMIX is the classic 7:4:1 Internet mix (≈58%/33%/8%).
func SimpleIMIX() []IMIXEntry {
	return []IMIXEntry{{64, 7}, {594, 4}, {1518, 1}}
}

// Config describes a generated stream.
type Config struct {
	// PPS is the packet rate. Inter-arrival is constant (worst case for
	// line-rate tests); set Jitter to add exponential spacing noise.
	PPS float64
	// Sizes is the frame-size mix; a single entry gives fixed size.
	Sizes []IMIXEntry
	// Flows is the number of distinct 5-tuples, at most MaxFlows; source
	// ports (and the low 16 bits of an IPv4 source address) vary per flow.
	Flows int
	// ZipfS skews flow popularity (0 = uniform; 1.2 = heavy head): flow k
	// is drawn with probability proportional to (1+k)^-(1+ZipfS). It must
	// be finite; a value at or below 0, or one so small that 1+ZipfS == 1,
	// draws flows uniformly.
	ZipfS float64
	// Jitter adds exponential inter-arrival noise with the given
	// fraction of the mean gap (0 = strictly paced).
	Jitter float64
	// SrcMAC/DstMAC/SrcIP/DstIP seed the header fields.
	SrcMAC, DstMAC packet.MAC
	SrcIP, DstIP   netip.Addr
	DstPort        uint16
	Proto          packet.IPProtocol

	// Rand, when set, replaces the simulator's ambient RNG for all of the
	// generator's draws (flow pick, size pick, jitter). Sharded
	// experiments must set it to a partition-keyed stream
	// (netsim.Sharded.Stream) so a generator's randomness is a function
	// of its logical partition, not of which shard hosts it — the
	// placement-invariance rule that keeps results byte-identical at any
	// shard count.
	Rand *rand.Rand

	// Templates, when set, bypasses the synthetic flow/size machinery:
	// emission draws from these pre-built frames by weight. This is how
	// the protocol-diverse profiles (ARP storms, DHCP churn, DNS-heavy
	// edge, elephant/mice) feed the generator — see ProfileTemplates.
	Templates []WeightedFrame
}

// WeightedFrame is one pre-built template in a mixed-protocol profile.
type WeightedFrame struct {
	Frame  []byte
	Weight int
}

// MaxFlows bounds Config.Flows: a flow is told apart by its 16-bit source
// port, so a larger population would repeat frames.
const MaxFlows = 1 << 16

// Generator emits frames into a sink on a simulated schedule.
type Generator struct {
	sim  *netsim.Simulator
	cfg  Config
	rng  *rand.Rand
	sink func([]byte) bool

	// classes holds the pre-built frames: one per size class in synthetic
	// mode, one per configured template in template mode.
	classes   []frameClass
	mean      float64 // mean inter-arrival time in ns, 1e9/PPS
	sizeEdges []int   // cumulative weights
	sizeTotal int
	tmplEdges []int // cumulative template weights (template mode)
	tmplTotal int
	zipf      *zipf

	Sent    uint64
	Refused uint64 // sink returned false (downstream drop; the frame was released)

	// tracer, when set, samples emitted frames into the packet-trace ring
	// and threads the trace ID through the synchronous sink call.
	tracer *telemetry.Tracer

	stopped bool
}

// frameClass holds the frames of one size class, or one template. Flow
// f's frame is frame with its first headLen bytes replaced by the flow's
// head, heads[f*headLen:(f+1)*headLen]. Every field that tells two flows
// apart lies in the head, so the rest of frame is every flow's tail. A
// template has one flow, whose head is the whole frame.
type frameClass struct {
	frame   []byte
	heads   []byte
	headLen int
}

// New builds a generator. It panics when PPS is not positive and finite,
// ZipfS is not finite, Flows exceeds MaxFlows, or a Sizes or Templates
// weight is not positive.
//
// In synthetic mode New pre-builds every (flow, size) frame's head. Each
// emitted frame is byte-identical to packet.Build of that flow's spec
// (flowSpec), but New calls packet.Build once per size class only, for
// flow 0, and writes the other flows' heads from that template
// (flowTemplate).
//
// Every frame is a fresh packet.GetBuffer copy of its template, handed to
// sink: a sink that returns true owns the frame from then on (see
// packet.PutBuffer); one that returns false refused it and must not keep
// it, and the generator releases it.
func New(sim *netsim.Simulator, cfg Config, sink func([]byte) bool) *Generator {
	if !(cfg.PPS > 0) || math.IsInf(cfg.PPS, 1) {
		panic("trafficgen: PPS must be positive and finite")
	}
	if math.IsNaN(cfg.ZipfS) || math.IsInf(cfg.ZipfS, 0) {
		panic("trafficgen: ZipfS must be finite")
	}
	if cfg.Flows > MaxFlows {
		panic("trafficgen: Flows must be at most MaxFlows (65536), one per 16-bit source port")
	}
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = []IMIXEntry{{Size: 64, Weight: 1}}
	}
	if cfg.Flows <= 0 {
		cfg.Flows = 1
	}
	if cfg.Proto == 0 {
		cfg.Proto = packet.IPProtocolUDP
	}
	if !cfg.SrcIP.IsValid() {
		cfg.SrcIP = netip.MustParseAddr("10.1.0.1")
	}
	if !cfg.DstIP.IsValid() {
		cfg.DstIP = netip.MustParseAddr("10.2.0.1")
	}
	if cfg.DstPort == 0 {
		cfg.DstPort = 80
	}
	g := &Generator{sim: sim, cfg: cfg, sink: sink, mean: float64(netsim.Second) / cfg.PPS}
	g.rng = cfg.Rand
	if g.rng == nil {
		g.rng = sim.Rand()
	}
	if len(cfg.Templates) > 0 {
		for _, wf := range cfg.Templates {
			if wf.Weight <= 0 || len(wf.Frame) == 0 {
				panic("trafficgen: template frames need content and positive weight")
			}
			g.classes = append(g.classes, frameClass{frame: wf.Frame, heads: wf.Frame, headLen: len(wf.Frame)})
			g.tmplTotal += wf.Weight
			g.tmplEdges = append(g.tmplEdges, g.tmplTotal)
		}
		return g
	}
	for _, e := range cfg.Sizes {
		if e.Weight <= 0 {
			panic("trafficgen: size classes need positive weight")
		}
		g.sizeTotal += e.Weight
		g.sizeEdges = append(g.sizeEdges, g.sizeTotal)
	}
	if cfg.ZipfS > 0 && cfg.Flows > 1 {
		g.zipf = newZipf(g.rng, cfg.ZipfS+1, 1, uint64(cfg.Flows-1))
	}
	g.prebuild()
	return g
}

// prebuild writes every flow's head for each size class, in one backing
// array per class; emission then copies a head and the class's tail
// (allocation-free hot path).
func (g *Generator) prebuild() {
	g.classes = make([]frameClass, len(g.cfg.Sizes))
	for s, e := range g.cfg.Sizes {
		t := newFlowTemplate(&g.cfg, e.Size)
		n := t.headLen
		heads := make([]byte, g.cfg.Flows*n)
		for f := 0; f < g.cfg.Flows; f++ {
			t.write(heads[f*n:(f+1)*n], f)
		}
		g.classes[s] = frameClass{frame: t.frame, heads: heads, headLen: n}
	}
}

// flowSpec describes flow f's frame of the given size: the configured
// headers, with f folded into the low 16 bits of an IPv4 source address and
// into the source port (the echo ID for ICMPv4).
func flowSpec(cfg *Config, f, size int) packet.Spec {
	src := cfg.SrcIP
	if src.Is4() {
		b := src.As4()
		b[2] ^= byte(f >> 8)
		b[3] ^= byte(f)
		src = netip.AddrFrom4(b)
	}
	return packet.Spec{
		SrcMAC: cfg.SrcMAC, DstMAC: cfg.DstMAC,
		SrcIP: src, DstIP: cfg.DstIP,
		Proto:   cfg.Proto,
		SrcPort: uint16(1024 + f), DstPort: cfg.DstPort,
		PadTo: size,
	}
}

// flowTemplate is one size class's frame for flow 0, with the offsets of
// the fields that differ between flows and the ones' complement sums of
// the rest of each checksummed span, so write can produce any flow's head
// without packet.Build.
type flowTemplate struct {
	frame []byte
	// headLen is the length of a flow's head: the frame up to its last
	// per-flow field, rounded up to 64 bytes and capped at the frame.
	headLen int
	v4      bool // the source address varies (IPv4) and has a header checksum
	udp     bool // a computed checksum of 0 is sent as 0xFFFF (RFC 768)
	// addrInL4 is set when the L4 checksum covers the pseudo header (UDP,
	// TCP), so the address change enters it too; ICMPv4's does not.
	addrInL4 bool
	// Offsets of the source address's bytes 2..3, the IPv4 header
	// checksum, the source port (or echo ID) and the L4 checksum.
	addr, ipCsum, port, l4Csum int
	addr0                      uint16 // flow 0's source-address bytes 2..3
	ipSum, l4Sum               uint32 // sums with the per-flow fields zeroed
}

func newFlowTemplate(cfg *Config, size int) flowTemplate {
	const eth = 14
	frame := packet.MustBuild(flowSpec(cfg, 0, size))
	t := flowTemplate{
		frame:    frame,
		v4:       cfg.SrcIP.Is4(),
		udp:      cfg.Proto == packet.IPProtocolUDP,
		addrInL4: cfg.Proto != packet.IPProtocolICMPv4,
	}
	l4, src, dst := eth+40, eth+8, eth+24
	if t.v4 {
		l4, src, dst = eth+20, eth+12, eth+16
		t.addr, t.ipCsum = src+2, eth+10
		t.addr0 = binary.BigEndian.Uint16(frame[t.addr:])
	}
	t.port, t.l4Csum = l4, l4+6 // UDP
	switch cfg.Proto {
	case packet.IPProtocolTCP:
		t.l4Csum = l4 + 16
	case packet.IPProtocolICMPv4:
		t.port, t.l4Csum = l4+4, l4+2
	}
	last := max(t.addr, t.ipCsum, t.port, t.l4Csum) + 2
	t.headLen = min(len(frame), (last+63)&^63)

	// packet.Checksum is the complement of the folded ones' complement
	// sum; complemented back, it is a partial sum more words can join.
	zeroed := append([]byte(nil), frame...)
	for _, off := range []int{t.port, t.l4Csum} {
		zeroed[off], zeroed[off+1] = 0, 0
	}
	if t.v4 {
		for _, off := range []int{t.addr, t.ipCsum} {
			zeroed[off], zeroed[off+1] = 0, 0
		}
		t.ipSum = uint32(^packet.Checksum(zeroed[eth:l4]))
	}
	if t.addrInL4 {
		t.l4Sum = uint32(^packet.TransportChecksum(zeroed[l4:], zeroed[src:dst], zeroed[dst:l4], cfg.Proto))
	} else {
		t.l4Sum = uint32(^packet.Checksum(zeroed[l4:]))
	}
	return t
}

// write fills dst, at least t.headLen and at most len(t.frame) bytes,
// with the start of flow f's frame.
func (t *flowTemplate) write(dst []byte, f int) {
	copy(dst, t.frame)
	port := uint16(1024 + f)
	binary.BigEndian.PutUint16(dst[t.port:], port)
	l4 := t.l4Sum + uint32(port)
	if t.v4 {
		addr := t.addr0 ^ uint16(f)
		binary.BigEndian.PutUint16(dst[t.addr:], addr)
		binary.BigEndian.PutUint16(dst[t.ipCsum:], packet.FinishChecksum(t.ipSum+uint32(addr)))
		if t.addrInL4 {
			l4 += uint32(addr)
		}
	}
	c := packet.FinishChecksum(l4)
	if c == 0 && t.udp {
		c = 0xffff
	}
	binary.BigEndian.PutUint16(dst[t.l4Csum:], c)
}

// nextFrame draws the next frame and returns it in a fresh pool buffer.
func (g *Generator) nextFrame() []byte {
	var c *frameClass
	flow := 0
	if g.tmplTotal > 0 {
		c = &g.classes[pickEdge(g.tmplEdges, g.rng.Intn(g.tmplTotal))]
	} else {
		if g.cfg.Flows > 1 {
			if g.zipf != nil {
				flow = int(g.zipf.Uint64())
			} else {
				flow = g.rng.Intn(g.cfg.Flows)
			}
		}
		size := 0
		if len(g.classes) > 1 {
			size = pickEdge(g.sizeEdges, g.rng.Intn(g.sizeTotal))
		}
		c = &g.classes[size]
	}
	head := c.heads[flow*c.headLen:][:c.headLen]
	buf := packet.GetBuffer(len(c.frame))
	copy(buf, head)
	if n := len(head); n < len(buf) {
		copy(buf[n:], c.frame[n:])
	}
	return buf
}

// pickEdge returns the index of the first cumulative weight above w.
func pickEdge(edges []int, w int) int {
	for i, edge := range edges {
		if w < edge {
			return i
		}
	}
	return 0
}

// gap returns the next inter-arrival time.
func (g *Generator) gap() netsim.Duration {
	mean := g.mean
	if g.cfg.Jitter > 0 {
		mean = mean*(1-g.cfg.Jitter) + g.rng.ExpFloat64()*mean*g.cfg.Jitter
	}
	d := netsim.Duration(mean)
	if d < 1 {
		d = 1
	}
	return d
}

// Run emits count frames (0 = until Stop), starting one gap from now.
func (g *Generator) Run(count uint64) {
	var emit func()
	emit = func() {
		if g.stopped || (count > 0 && g.Sent >= count) {
			return
		}
		buf := g.nextFrame()
		if tr := g.tracer; tr != nil {
			id, _ := tr.Sample()
			if id != 0 {
				tr.Hop(id, telemetry.StageGen, uint64(g.sim.Now()), len(buf), 0)
			}
			// Install the ambient ID (0 for unsampled frames) for the
			// synchronous sink chain: link Send, or module rx → PPE submit.
			tr.SetCurrent(id)
		}
		accepted := g.sink(buf)
		g.Sent++
		if !accepted {
			g.Refused++
			packet.PutBuffer(buf)
		}
		if g.tracer != nil {
			g.tracer.SetCurrent(0)
		}
		g.sim.ScheduleDetached(g.gap(), emit)
	}
	g.sim.ScheduleDetached(g.gap(), emit)
}

// SetTracer attaches (or detaches, with nil) the packet-trace sampler.
// Wiring-time only.
func (g *Generator) SetTracer(tr *telemetry.Tracer) { g.tracer = tr }

// Stop halts emission after the current event.
func (g *Generator) Stop() { g.stopped = true }
