package main

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"time"

	"flexsfp/internal/apps"
	"flexsfp/internal/build"
	"flexsfp/internal/hls"
	"flexsfp/internal/netsim"
	"flexsfp/internal/overlay"
	"flexsfp/internal/packet"
	"flexsfp/internal/ppe"
	"flexsfp/internal/trafficgen"
)

const (
	overlayCables = 4
	// overlayShare is each cable's offered inner rate as a share of 10G
	// line rate. Every cable's one two-way engine carries its own edge
	// traffic plus its neighbour's encapsulated traffic, so the pair of
	// streams must fit one 156.25 MHz × 64 bit pipeline with room for
	// IMIX burstiness; 0.36 is loss-free, 0.9 drops about half.
	overlayShare    = 0.36
	overlaySyncEach = 5 // SyncAll every this many simulated ms
	overlayLatBins  = 1 << 18
)

// overlayIMIX is the 7:4:1 mix with the large class trimmed by the VXLAN
// overhead (50 B), so an encapsulated frame still fits the 1518 B underlay
// MTU the mesh app enforces.
func overlayIMIX() []trafficgen.IMIXEntry {
	return []trafficgen.IMIXEntry{{Size: 64, Weight: 7}, {Size: 594, Weight: 4}, {Size: 1468, Weight: 1}}
}

// overlaySrc is flow f's inner source on cable i; cable i sends to the
// .9 host of cable i+1's /24.
func overlaySrc(i int) func(f int) [4]byte {
	return func(f int) [4]byte { return [4]byte{10, 200, byte(i + 1), 1 ^ byte(f)} }
}
func overlayDst(i int) [4]byte { return [4]byte{10, 200, byte((i+1)%overlayCables + 1), 9} }

// overlayEnd is one cable's per-shard state: everything here is written
// only from that cable's shard goroutine and read at barriers.
type overlayEnd struct {
	sim       *netsim.Simulator
	wire      *netsim.Link
	gen       *trafficgen.Generator
	seq       uint32
	offered   uint64
	delivered uint64
	bytesOut  uint64
	bad       uint64
	content   uint64
	lat       *latHist
}

type overlayWorld struct {
	sh    *netsim.Sharded
	fab   *overlay.Fabric
	ends  []*overlayEnd
	epoch netsim.Time
}

type overlayWorkload struct {
	sz     sizing
	warmMs int
	workMs int
}

func newOverlayWorkload(sz sizing) *overlayWorkload {
	return &overlayWorkload{sz: sz, warmMs: sz.pick(10, 1), workMs: sz.pick(60, 5)}
}

func (w *overlayWorkload) work() map[string]float64 {
	return map[string]float64{"warm_sim_ms": float64(w.warmMs), "work_sim_ms": float64(w.workMs),
		"cables": overlayCables, "shards": 2}
}

func newOverlayWorld(seed int64, shards int, tr *tracer) (*overlayWorld, error) {
	w := &overlayWorld{sh: netsim.NewSharded(seed, shards), ends: make([]*overlayEnd, overlayCables)}
	for i := range w.ends {
		w.ends[i] = &overlayEnd{lat: newLatHist(overlayLatBins)}
	}
	fab, err := overlay.NewFabric(overlay.FabricSpec{
		Sh: w.sh, Cables: overlayCables,
		EdgeSink: w.edgeSink,
	})
	if err != nil {
		return nil, err
	}
	if err := fab.RegisterAll(); err != nil {
		return nil, err
	}
	w.fab = fab
	w.epoch = w.sh.AlignClocks()

	pps := linePPS(overlayIMIX(), overlayShare)
	for i, c := range fab.Cables {
		e, mod := w.ends[i], c.Mod
		e.sim = c.Sim
		deliver := mod.RxEdge
		if tr != nil {
			// Frame ids are per cable; fold the cable into the span's op id.
			op := uint64(i) << 32
			deliver = func(b []byte) {
				if id := stampSeq(b); tr.sampled(id) {
					h := tr.begin(spCoreRx, op|id, 0)
					mod.RxEdge(b)
					tr.end(h)
					return
				}
				mod.RxEdge(b)
			}
			prog := mod.Engine().Program()
			inner := prog.Handler
			prog.Handler = ppe.HandlerFunc(func(ctx *ppe.Ctx) ppe.Verdict {
				name, data := spMeshEncap, ctx.Data
				if ctx.Dir == ppe.DirOpticalToEdge {
					// The stamp sits at the tail of the inner frame, which
					// is also the tail of the encapsulated one.
					name = spMeshDecap
				}
				if id := stampSeq(data); tr.sampled(id) {
					h := tr.begin(name, id, 0)
					v := inner.HandlePacket(ctx)
					tr.end(h)
					return v
				}
				return inner.HandlePacket(ctx)
			})
		}
		e.wire = netsim.NewLink(c.Sim, lineBps, 0, deliver)
		e.gen = trafficgen.New(c.Sim, trafficgen.Config{
			PPS: pps, Sizes: overlayIMIX(), Flows: 32,
			SrcIP: netip.AddrFrom4(overlaySrc(i)(0)), DstIP: netip.AddrFrom4(overlayDst(i)),
			Rand: w.sh.Stream(i),
		}, func(b []byte) bool {
			seq := e.seq
			e.seq++
			e.offered++
			putStamp(b, seq, e.sim.Now())
			binary.LittleEndian.PutUint32(b[len(b)-12:], frameCRC(b))
			if tr.sampled(uint64(seq)) {
				h := tr.begin(spLinkSend, uint64(i)<<32|uint64(seq), 0)
				ok := e.wire.Send(b)
				tr.end(h)
				return ok
			}
			return e.wire.Send(b)
		})
	}
	return w, nil
}

// edgeSink is cable i's decapsulated output. The frame must be the inner
// frame its neighbour offered, byte for byte, on the right cable.
func (w *overlayWorld) edgeSink(i int, b []byte) {
	e := w.ends[i]
	e.delivered++
	e.bytesOut += uint64(len(b))
	from := (i + overlayCables - 1) % overlayCables
	ok := len(b) >= 64 &&
		binary.LittleEndian.Uint32(b[len(b)-12:]) == frameCRC(b) &&
		b[28] == byte(from+1) && [4]byte(b[30:34]) == overlayDst(from)
	if !ok {
		e.bad++
		return
	}
	e.lat.observe(int64(e.sim.Now() - stampTime(b)))
	if stampSeq(b)&sampleMask == 0 {
		e.content = e.content*1099511628211 ^ packet.FNV64(b)
	}
}

type overlayCounters struct {
	offered, delivered, bytesOut uint64
	queueDrops, verdictDrops     uint64
	linkDrops, noLink            uint64
	fired                        uint64
	generation                   uint64
}

func (w *overlayWorld) counters() overlayCounters {
	var oc overlayCounters
	for i, c := range w.fab.Cables {
		e := w.ends[i]
		oc.offered += e.offered
		oc.delivered += e.delivered
		oc.bytesOut += e.bytesOut
		st := c.Mod.Engine().Stats()
		oc.queueDrops += st.QueueDrop
		oc.verdictDrops += st.Drop
		oc.noLink += c.NoLinkDrops
		ws := e.wire.Stats()
		oc.linkDrops += ws.Drops + ws.DownDrops
		for _, l := range c.Links {
			if l != nil {
				ls := l.Stats()
				oc.linkDrops += ls.Drops + ls.DownDrops
			}
		}
		for _, name := range []string{apps.MeshRouteTable, apps.MeshPeerTable} {
			if t, ok := c.Mod.App().State().Table(name); ok {
				oc.generation += t.Generation()
			}
		}
	}
	oc.fired = w.sh.Fired()
	return oc
}

func (oc overlayCounters) drops() uint64 {
	return oc.queueDrops + oc.verdictDrops + oc.linkDrops + oc.noLink
}

func (w *overlayWorkload) run(tr *tracer) repeat { return w.runShards(2, tr) }

func (w *overlayWorkload) runShards(shards int, tr *tracer) repeat {
	r := repeat{exact: map[string]float64{}, samples: map[string][]float64{}}
	r.perOpNs = make([]float64, 0, w.workMs)

	t0 := time.Now()
	ow, err := newOverlayWorld(w.sz.seed, shards, tr)
	if err != nil {
		r.check(false, "setup: %v", err)
		return r
	}
	for _, e := range ow.ends {
		e.gen.Run(0)
	}
	at := ow.epoch.Add(netsim.Duration(w.warmMs) * netsim.Millisecond)
	ow.sh.RunUntil(at)
	r.setupS = time.Since(t0).Seconds()

	for _, e := range ow.ends {
		e.lat.reset()
	}
	base := ow.counters()
	h0 := sampleHost()
	offered := base.offered
	for k := 1; k <= w.workMs; k++ {
		s0 := time.Now()
		at = at.Add(netsim.Millisecond)
		ow.sh.RunUntil(at)
		if k%overlaySyncEach == 0 {
			if err := ow.fab.SyncAll(); err != nil {
				r.check(false, "SyncAll: %v", err)
			}
		}
		dt := time.Since(s0)
		var now uint64
		for _, e := range ow.ends {
			now += e.offered
		}
		r.perOpNs = append(r.perOpNs, float64(dt.Nanoseconds())/float64(now-offered))
		offered = now
	}
	h1 := sampleHost()
	end := ow.counters()
	lat := newLatHist(overlayLatBins)
	for _, e := range ow.ends {
		lat.add(e.lat)
	}
	p50, p99 := lat.percentile(0.5), lat.percentile(0.99)

	for _, e := range ow.ends {
		e.gen.Stop()
	}
	ow.sh.RunUntil(at.Add(drainTime))
	final := ow.counters()

	sent := end.offered - base.offered
	r.win = h0.until(h1, sent)
	simS := float64(w.workMs) * 1e-3
	r.exact["modeled_mpps"] = float64(end.delivered-base.delivered) / simS / 1e6
	r.exact["modeled_loss_frac"] = float64(end.drops()-base.drops()) / float64(sent)
	r.exact["modeled_latency_ns_p50"] = p50
	r.exact["modeled_latency_ns_p99"] = p99
	r.exact["netsim.events_per_frame"] = float64(end.fired-base.fired) / float64(sent)
	r.exact["netsim.link.drops"] = float64(end.linkDrops - base.linkDrops)
	r.exact["ppe.engine.queue_drops"] = float64(end.queueDrops - base.queueDrops)
	r.exact["ppe.engine.utilization"] = ow.fab.Cables[0].Mod.Engine().Utilization()
	r.exact["ppe.table.generation_delta"] = float64(end.generation - base.generation)
	r.samples["netsim.events_per_s"] = []float64{float64(end.fired-base.fired) / (float64(r.win.wallNs) * 1e-9)}

	var bad uint64
	var d digester
	for i, e := range ow.ends {
		bad += e.bad
		r.check(e.gen.Sent == e.offered, "cable %d: generator sent %d, sink offered %d", i, e.gen.Sent, e.offered)
		d.add(fmt.Sprintf("cable%d", i), fmt.Sprint(e.offered, e.delivered, e.bytesOut, e.content))
	}
	r.count(final.delivered, bad, "%d edge frames were not the byte-identical inner frame from the neighbouring cable", bad)
	r.check(lat.overflow == 0 && lat.n > 0, "modeled latency: %d samples, %d beyond %d ns", lat.n, lat.overflow, overlayLatBins)
	r.check(final.offered == final.delivered+final.drops(),
		"conservation: offered %d, delivered %d + dropped %d", final.offered, final.delivered, final.drops())
	r.check(final.noLink == 0, "%d frames matched no underlay link", final.noLink)
	r.check(end.drops() == base.drops(), "%d frames dropped at a rate chosen to be loss-free", end.drops()-base.drops())
	r.check(end.generation == base.generation, "a no-op SyncAll wrote %d table entries", end.generation-base.generation)

	d.add("sent", sent)
	d.add("delivered", end.delivered-base.delivered)
	d.add("drops", fmt.Sprint(end.queueDrops-base.queueDrops, end.verdictDrops-base.verdictDrops, end.linkDrops-base.linkDrops, end.noLink))
	d.add("lat", fmt.Sprint(p50, p99, lat.n, lat.overflow))
	d.add("final", fmt.Sprint(final.offered, final.delivered, final.bytesOut, final.drops()))
	r.digest = d.sum()
	return r
}

// isolate reruns the same world on one shard (same seed, same work) for
// the PDES numbers, then drives the overlay's layers one at a time.
func (w *overlayWorkload) isolate(out *layerOut) {
	two := w.runShards(2, nil)
	one := w.runShards(1, nil)
	out.set("netsim.sharded.speedup_2", float64(one.win.wallNs)/float64(two.win.wallNs))
	out.set("netsim.sharded.cpu_ratio_2", float64(two.win.cpuNs)/float64(one.win.cpuNs))
	equal := 0.0
	if one.digest == two.digest {
		equal = 1
	}
	out.set("netsim.sharded.model_equal", equal)
	out.check(equal == 1, "modeled digest at 1 shard is %s, at 2 shards %s", one.digest, two.digest)
	out.check(one.failed == 0, "the 1-shard rerun failed %d checks: %v", one.failed, one.failures)

	frames := isoFrames(overlayIMIX(), 32, overlaySrc(0), overlayDst(0))
	isoTrafficgen(out, overlayIMIX(), 32, 0, w.sz)
	isoScheduler(out, 32, w.sz)
	isoEngine(out, frames, w.sz)
	isoViewParse(out, "packet.view.parse_ns_imix", frames, w.sz)
	isoMesh(out, frames, w.sz)
	isoOverlayControl(out, w.sz)
	if cfg, err := apps.CanonicalConfig("mesh"); err == nil {
		isoBuildModule(out, build.ModuleSpec{Name: "iso", DeviceID: 1, Shell: hls.TwoWayCore, App: "mesh", Config: cfg}, w.sz)
	}
}
