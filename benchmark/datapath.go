package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"net/netip"
	"time"

	"flexsfp/internal/apps"
	"flexsfp/internal/build"
	"flexsfp/internal/core"
	"flexsfp/internal/hls"
	"flexsfp/internal/mgmt"
	"flexsfp/internal/netsim"
	"flexsfp/internal/packet"
	"flexsfp/internal/ppe"
	"flexsfp/internal/telemetry"
	"flexsfp/internal/trafficgen"
)

const (
	lineBps = 10_000_000_000
	// latBins is the modeled-latency histogram range: 1 ns bins up to 1 ms.
	latBins = 1 << 20
	// drainTime lets every frame in flight leave the cable after the
	// generators stop, before conservation is checked.
	drainTime = netsim.Millisecond
)

// Every offered frame carries a 16-byte stamp in its trailing pad bytes,
// written by the benchmark's generator sink: the frame's sequence number
// (its trace id), a CRC over the rest of the frame (overlay workload
// only), and the simulated send time the modeled latency is taken from.
func putStamp(b []byte, seq uint32, now netsim.Time) {
	n := len(b)
	binary.LittleEndian.PutUint32(b[n-16:], seq)
	binary.LittleEndian.PutUint32(b[n-12:], 0)
	binary.LittleEndian.PutUint64(b[n-8:], uint64(now))
}

func stampSeq(b []byte) uint64 { return uint64(binary.LittleEndian.Uint32(b[len(b)-16:])) }

func stampTime(b []byte) netsim.Time {
	return netsim.Time(binary.LittleEndian.Uint64(b[len(b)-8:]))
}

// frameCRC covers every byte of a stamped frame except the CRC field.
func frameCRC(b []byte) uint32 {
	n := len(b)
	return crc32.Update(crc32.ChecksumIEEE(b[:n-12]), crc32.IEEETable, b[n-8:])
}

// linePPS returns the 10G line rate for a size mix, quantized down to the
// simulator's whole-nanosecond inter-arrival grid: a truncated gap would
// offer slightly above wire rate and grow the tester's queue without
// bound, which would turn the modeled latency into a function of run
// length.
func linePPS(sizes []trafficgen.IMIXEntry, share float64) float64 {
	total, weight := 0, 0
	for _, e := range sizes {
		total += e.Size * e.Weight
		weight += e.Weight
	}
	mean := float64(total) / float64(weight)
	pps := share * lineBps / ((mean + 20) * 8)
	gap := math.Ceil(1e9 / pps)
	return 1e9 / (gap + 1e-6) // the generator truncates 1e9/pps back to gap
}

// natInternal / natExternal are flow f's source address before and after
// translation; the generator derives flow sources from 10.1.0.1 the same
// way, and the source port 1024+f names the flow in every frame.
func natInternal(f int) [4]byte { return [4]byte{10, 1, byte(f >> 8), 1 ^ byte(f)} }
func natExternal(f int) [4]byte { return [4]byte{100, 64, byte(f >> 8), 1 ^ byte(f)} }

// coldInternal is a mapping no generated flow uses: the churn workload
// deletes and re-adds it, so the table sees writes while every frame still
// hits.
var (
	coldInternal = [4]byte{10, 9, 0, 1}
	coldExternal = [4]byte{100, 127, 0, 1}
)

func frameFlow(b []byte) int { return int(binary.BigEndian.Uint16(b[34:36])) - 1024 }

func ipv4HeaderOK(b []byte) bool { return packet.Checksum(b[14:34]) == 0 }

// checkNAT: the output carries flow f's mapped external source and a
// valid IPv4 header checksum.
func checkNAT(b []byte) bool {
	return [4]byte(b[26:30]) == natExternal(frameFlow(b)) && ipv4HeaderOK(b)
}

// checkUntouched: the XDP codelet passes non-DNS traffic unmodified.
func checkUntouched(b []byte) bool {
	return [4]byte(b[26:30]) == natInternal(frameFlow(b)) && ipv4HeaderOK(b)
}

// cableSpec describes a single-cable datapath workload.
type cableSpec struct {
	app       string
	config    any
	sizes     []trafficgen.IMIXEntry
	share     float64 // offered load as a share of 10G line rate
	flows     int
	zipf      float64
	mapFlows  bool // install a NAT mapping for every flow (plus the cold one)
	churn     bool
	handler   string // per-layer metric name of the app handler
	span      uint16 // and its span name
	checkOut  func([]byte) bool
	warmMs    int
	workMs    int
	pendDepth int // typical pending-event depth, for the scheduler driver
}

// cable is one module fed by a generator through a 10G wire, with the
// benchmark's own callbacks at every boundary it is allowed to own.
type cable struct {
	spec cableSpec
	sim  *netsim.Simulator
	mod  *core.Module
	wire *netsim.Link
	gen  *trafficgen.Generator
	tr   *tracer

	seq       uint32
	offered   uint64
	delivered uint64
	bytesOut  uint64
	content   uint64 // rolling hash of sampled output frames
	badOut    uint64
	lat       *latHist
	table     *ppe.Table // nil when the app has no "nat" table

	reg *telemetry.Registry // the instrumented rerun only

	churn *churner
}

// newCable builds the world. tr, when set, records spans around the
// benchmark's own callbacks. instrument attaches the module's and the
// wire's telemetry, which costs every frame a few atomic adds: only the
// per-layer pass's one instrumented rerun asks for it, so neither the
// untraced nor the traced repeats pay.
func newCable(spec cableSpec, seed int64, tr *tracer, instrument bool) (*cable, error) {
	c := &cable{spec: spec, sim: netsim.New(seed), tr: tr, lat: newLatHist(latBins)}
	mod, _, err := build.Module(c.sim, build.ModuleSpec{
		Name: "dut", DeviceID: 1, Shell: hls.TwoWayCore, App: spec.app, Config: spec.config,
	})
	if err != nil {
		return nil, err
	}
	c.mod = mod
	if t, ok := mod.App().State().Table("nat"); ok {
		c.table = t
	}
	if spec.mapFlows {
		for f := 0; f < spec.flows; f++ {
			in, ex := natInternal(f), natExternal(f)
			if err := c.table.Add(in[:], ex[:]); err != nil {
				return nil, fmt.Errorf("mapping flow %d: %w", f, err)
			}
		}
		if err := c.table.Add(coldInternal[:], coldExternal[:]); err != nil {
			return nil, err
		}
	}

	deliver := mod.RxEdge
	if tr != nil {
		prog := mod.Engine().Program()
		inner := prog.Handler
		prog.Handler = ppe.HandlerFunc(func(ctx *ppe.Ctx) ppe.Verdict {
			if id := stampSeq(ctx.Data); tr.sampled(id) {
				h := tr.begin(spec.span, id, 0)
				v := inner.HandlePacket(ctx)
				tr.end(h)
				return v
			}
			return inner.HandlePacket(ctx)
		})
		deliver = func(b []byte) {
			if id := stampSeq(b); tr.sampled(id) {
				h := tr.begin(spCoreRx, id, 0)
				mod.RxEdge(b)
				tr.end(h)
				return
			}
			mod.RxEdge(b)
		}
	}
	c.wire = netsim.NewLink(c.sim, lineBps, 0, deliver)
	if instrument {
		c.reg = telemetry.New()
		mod.AttachTelemetry(c.reg)
		c.wire.SetTelemetry(nil, c.reg.Histogram("link.queue_depth", telemetry.LinearBuckets(0, 4, 16)))
	}
	mod.SetTx(core.PortEdge, trafficgen.PutBuffer)
	mod.SetTx(core.PortOptical, c.txSink)

	c.gen = trafficgen.New(c.sim, trafficgen.Config{
		PPS: linePPS(spec.sizes, spec.share), Sizes: spec.sizes, Flows: spec.flows, ZipfS: spec.zipf,
		SrcIP: netip.AddrFrom4(natInternal(0)),
	}, c.genSink)
	if spec.churn {
		c.churn = newChurner(c)
	}
	return c, nil
}

// genSink is the generator's sink: stamp, then offer to the wire.
func (c *cable) genSink(b []byte) bool {
	seq := c.seq
	c.seq++
	c.offered++
	if c.tr.sampled(uint64(seq)) {
		h := c.tr.begin(spGenSink, uint64(seq), 0)
		putStamp(b, seq, c.sim.Now())
		hs := c.tr.begin(spLinkSend, uint64(seq), h)
		ok := c.wire.Send(b)
		c.tr.end(hs)
		c.tr.end(h)
		return ok
	}
	putStamp(b, seq, c.sim.Now())
	return c.wire.Send(b)
}

// txSink receives the cable's optical output: modeled latency, the output
// check on every frame, a content hash on the sampled ones.
func (c *cable) txSink(b []byte) {
	id := stampSeq(b)
	traced := c.tr.sampled(id)
	var h int
	if traced {
		h = c.tr.begin(spTxSink, id, 0)
	}
	c.lat.observe(int64(c.sim.Now() - stampTime(b)))
	c.delivered++
	c.bytesOut += uint64(len(b))
	if !c.spec.checkOut(b) {
		c.badOut++
	}
	if id&sampleMask == 0 {
		c.content = c.content*1099511628211 ^ packet.FNV64(b)
	}
	trafficgen.PutBuffer(b)
	if traced {
		c.tr.end(h)
	}
}

// cableCounters is a snapshot of everything the timed window takes a
// delta of.
type cableCounters struct {
	offered, delivered, bytesOut uint64
	engine                       ppe.EngineStats
	link                         netsim.LinkStats
	lookups, misses, generation  uint64
	fired                        uint64
}

func (c *cable) counters() cableCounters {
	cc := cableCounters{
		offered: c.offered, delivered: c.delivered, bytesOut: c.bytesOut,
		engine: c.mod.Engine().Stats(), link: c.wire.Stats(), fired: c.sim.Fired(),
	}
	if c.table != nil {
		cc.lookups, cc.misses = c.table.Stats()
		cc.generation = c.table.Generation()
	}
	return cc
}

func (cc cableCounters) drops() uint64 {
	return cc.engine.QueueDrop + cc.engine.Drop + cc.link.Drops + cc.link.DownDrops
}

// churner is the nat_churn_imix control plane: every 10 simulated µs an
// in-process mgmt client deletes and re-adds the cold mapping and reads
// one live mapping back, through the full codec and agent.
type churner struct {
	c       *cable
	client  *mgmt.Client
	tick    uint64
	stopped bool
	fire    func()

	attempted, failed uint64
}

const churnPeriod = 10 * netsim.Microsecond

func newChurner(c *cable) *churner {
	agent := mgmt.NewAgent(c.mod)
	ch := &churner{c: c, client: mgmt.NewClient(mgmt.TransportFunc(func(req []byte) ([]byte, error) {
		return agent.Handle(req), nil
	}))}
	ch.fire = func() {
		if ch.stopped {
			return
		}
		ch.step()
		c.sim.ScheduleDetached(churnPeriod, ch.fire)
	}
	c.sim.ScheduleDetached(churnPeriod, ch.fire)
	return ch
}

func (ch *churner) step() {
	t := ch.tick
	ch.tick++
	traced := ch.c.tr.sampled(t)
	var h int
	if traced {
		h = ch.c.tr.begin(spChurnTick, t, 0)
	}
	f := int(t * 2654435761 % uint64(ch.c.spec.flows))
	in, want := natInternal(f), natExternal(f)
	ch.attempted += 3
	if err := ch.client.TableDel("nat", coldInternal[:]); err != nil {
		ch.failed++
	}
	if err := ch.client.TableAdd("nat", coldInternal[:], coldExternal[:]); err != nil {
		ch.failed++
	}
	if got, err := ch.client.TableGet("nat", in[:]); err != nil || [4]byte(got) != want {
		ch.failed++
	}
	if traced {
		ch.c.tr.end(h)
	}
}

// cableWorkload runs a cableSpec as a benchmark workload.
type cableWorkload struct {
	spec cableSpec
	sz   sizing
}

func (w *cableWorkload) work() map[string]float64 {
	return map[string]float64{"warm_sim_ms": float64(w.spec.warmMs), "work_sim_ms": float64(w.spec.workMs)}
}

func (w *cableWorkload) run(tr *tracer) repeat { return w.runWith(tr, false) }

func (w *cableWorkload) runWith(tr *tracer, instrument bool) repeat {
	r := repeat{exact: map[string]float64{}, samples: map[string][]float64{}}
	spec := w.spec
	r.perOpNs = make([]float64, 0, spec.workMs)

	t0 := time.Now()
	c, err := newCable(spec, w.sz.seed, tr, instrument)
	if err != nil {
		r.check(false, "setup: %v", err)
		return r
	}
	c.gen.Run(0)
	c.sim.RunFor(netsim.Duration(spec.warmMs) * netsim.Millisecond)
	r.setupS = time.Since(t0).Seconds()

	c.lat.reset()
	base := c.counters()
	h0 := sampleHost()
	for k := 0; k < spec.workMs; k++ {
		s0, n0 := time.Now(), c.offered
		c.sim.RunFor(netsim.Millisecond)
		r.perOpNs = append(r.perOpNs, float64(time.Since(s0).Nanoseconds())/float64(c.offered-n0))
	}
	h1 := sampleHost()
	end := c.counters()
	p50, p99 := c.lat.percentile(0.5), c.lat.percentile(0.99)
	latN, latOver := c.lat.n, c.lat.overflow
	util := c.mod.Engine().Utilization()

	c.gen.Stop()
	if c.churn != nil {
		c.churn.stopped = true
	}
	c.sim.RunFor(drainTime)
	final := c.counters()

	sent := end.offered - base.offered
	r.win = h0.until(h1, sent)
	simS := float64(spec.workMs) * 1e-3
	r.exact["modeled_mpps"] = float64(end.delivered-base.delivered) / simS / 1e6
	r.exact["modeled_loss_frac"] = float64(end.drops()-base.drops()) / float64(sent)
	r.exact["modeled_latency_ns_p50"] = p50
	r.exact["modeled_latency_ns_p99"] = p99
	r.exact["netsim.events_per_frame"] = float64(end.fired-base.fired) / float64(sent)
	r.exact["netsim.link.drops"] = float64(end.link.Drops + end.link.DownDrops - base.link.Drops - base.link.DownDrops)
	r.exact["ppe.engine.queue_drops"] = float64(end.engine.QueueDrop - base.engine.QueueDrop)
	r.exact["ppe.engine.utilization"] = util
	if c.table != nil {
		if lk := end.lookups - base.lookups; lk > 0 {
			r.exact["ppe.table.hit_ratio"] = 1 - float64(end.misses-base.misses)/float64(lk)
		}
		r.exact["ppe.table.generation_delta"] = float64(end.generation - base.generation)
	}
	if c.reg != nil {
		snap := c.reg.Snapshot()
		if qd, ok := snap.Histogram("ppe.queue_depth"); ok {
			r.exact["ppe.engine.queue_depth_max"] = float64(qd.Max)
		}
		if qd, ok := snap.Histogram("link.queue_depth"); ok {
			r.exact["netsim.link.queue_depth_max"] = float64(qd.Max)
		}
	}
	r.samples["netsim.events_per_s"] = []float64{float64(end.fired-base.fired) / (float64(r.win.wallNs) * 1e-9)}

	// Correctness: every output frame passed its check, every offered
	// frame is accounted for, every mapped flow hit.
	r.count(final.delivered, c.badOut, "%d output frames failed the %s output check", c.badOut, spec.app)
	r.check(latOver == 0 && latN > 0, "modeled latency: %d samples, %d beyond %d ns", latN, latOver, latBins)
	lost := final.drops() + c.mod.Stats().RebootDrops
	r.check(c.gen.Sent == final.offered && final.offered == final.delivered+lost,
		"conservation: generator sent %d, sink offered %d, delivered %d + dropped %d", c.gen.Sent, final.offered, final.delivered, lost)
	if spec.mapFlows {
		r.check(final.misses == 0 && final.lookups > 0, "nat table: %d misses in %d lookups", final.misses, final.lookups)
	}
	if c.churn != nil {
		r.count(c.churn.attempted, c.churn.failed, "%d churn RPCs failed or read a wrong value", c.churn.failed)
	}

	var d digester
	d.add("sent", sent)
	d.add("delivered", end.delivered-base.delivered)
	d.add("bytes", end.bytesOut-base.bytesOut)
	d.add("queue_drops", end.engine.QueueDrop-base.engine.QueueDrop)
	d.add("verdict_drops", end.engine.Drop-base.engine.Drop)
	d.add("link_drops", r.exact["netsim.link.drops"])
	d.add("lat", fmt.Sprint(p50, p99, latN, latOver))
	d.add("lookups", end.lookups-base.lookups)
	d.add("misses", end.misses-base.misses)
	d.add("final", fmt.Sprint(final.offered, final.delivered, final.bytesOut, lost))
	d.add("content", c.content)
	r.digest = d.sum()
	return r
}

// isolate reruns the workload once with the model's own telemetry attached
// for the queue depths, then drives its layers one at a time.
func (w *cableWorkload) isolate(out *layerOut) {
	spec := w.spec
	inst := w.runWith(nil, true)
	for _, name := range []string{"ppe.engine.queue_depth_max", "netsim.link.queue_depth_max"} {
		out.set(name, inst.exact[name])
	}
	out.check(inst.failed == 0, "the instrumented rerun failed %d checks: %v", inst.failed, inst.failures)
	frames := isoFrames(spec.sizes, spec.flows, natInternal, [4]byte{10, 2, 0, 1})
	isoTrafficgen(out, spec.sizes, spec.flows, spec.zipf, w.sz)
	isoScheduler(out, spec.pendDepth, w.sz)
	isoEngine(out, frames, w.sz)
	isoViewParse(out, "packet.view.parse_ns", frames, w.sz)
	if spec.mapFlows {
		isoTable(out, spec.flows, w.sz)
	}
	isoHandler(out, spec, frames, w.sz)
	isoBuildModule(out, build.ModuleSpec{Name: "iso", DeviceID: 1, Shell: hls.TwoWayCore, App: spec.app, Config: spec.config}, w.sz)
	if spec.app == "xdp" {
		isoXDP(out, frames, w.sz)
	}
	if spec.churn {
		isoMgmtDirect(out, w.sz)
	}
}

func cableSpecs(sz sizing) map[string]cableSpec {
	fixed64 := []trafficgen.IMIXEntry{{Size: 64, Weight: 1}}
	return map[string]cableSpec{
		"nat_64b": {
			app: "nat", sizes: fixed64, share: 1, flows: 32, mapFlows: true,
			handler: "apps.nat.handler_ns", span: spNATHandler, checkOut: checkNAT,
			warmMs: sz.pick(10, 1), workMs: sz.pick(100, 5), pendDepth: 8,
		},
		"xdp_64b": {
			app: "xdp", config: apps.XDPConfig{Program: *apps.CanonicalXDPProgram()},
			sizes: fixed64, share: 1, flows: 32,
			handler: "apps.xdp.handler_ns", span: spXDPHandler, checkOut: checkUntouched,
			warmMs: sz.pick(10, 1), workMs: sz.pick(60, 5), pendDepth: 72,
		},
		"nat_churn_imix": {
			app: "nat", sizes: trafficgen.SimpleIMIX(), share: 0.95, flows: sz.pick(16384, 1024), zipf: 1.1, mapFlows: true, churn: true,
			handler: "apps.nat.handler_ns", span: spNATHandler, checkOut: checkNAT,
			warmMs: sz.pick(10, 1), workMs: sz.pick(200, 5), pendDepth: 16,
		},
	}
}
