package main

import (
	"fmt"
	"net/netip"
	"time"

	"flexsfp/internal/apps"
	"flexsfp/internal/bitstream"
	"flexsfp/internal/build"
	"flexsfp/internal/flash"
	"flexsfp/internal/hls"
	"flexsfp/internal/mgmt"
	"flexsfp/internal/netsim"
	"flexsfp/internal/overlay"
	"flexsfp/internal/packet"
	"flexsfp/internal/ppe"
	"flexsfp/internal/trafficgen"
)

// Isolated drivers: each calls one layer's public function in a loop, on
// the workload's own frames or keys, and reports ns per call as the median
// of a few rounds. They run after the repeats, in the per-layer pass only.

// isoFrames builds stamped frames shaped like the workload's traffic: one
// per (flow, size) for up to 1024 flows, which is past every cache that
// matters while keeping the driver's own footprint small.
func isoFrames(sizes []trafficgen.IMIXEntry, flows int, src func(f int) [4]byte, dst [4]byte) [][]byte {
	if flows > 1024 {
		flows = 1024
	}
	var out [][]byte
	for f := 0; f < flows; f++ {
		for _, e := range sizes {
			b := packet.MustBuild(packet.Spec{
				SrcIP: netip.AddrFrom4(src(f)), DstIP: netip.AddrFrom4(dst),
				SrcPort: uint16(1024 + f), DstPort: 80, PadTo: e.Size,
			})
			putStamp(b, uint32(len(out)), 0)
			out = append(out, b)
		}
	}
	return out
}

// isoTrafficgen: Generator.Run into a sink that only recycles. The cost
// includes the generator's own emit event.
func isoTrafficgen(out *layerOut, sizes []trafficgen.IMIXEntry, flows int, zipf float64, sz sizing) {
	n := uint64(sz.pick(200_000, 2_000))
	per := make([]float64, sz.rounds())
	for r := range per {
		sim := netsim.New(sz.seed)
		gen := trafficgen.New(sim, trafficgen.Config{
			PPS: linePPS(sizes, 1), Sizes: sizes, Flows: flows, ZipfS: zipf,
		}, func(b []byte) bool {
			trafficgen.PutBuffer(b)
			return true
		})
		gen.Run(n)
		t0 := time.Now()
		sim.Run()
		per[r] = float64(time.Since(t0).Nanoseconds()) / float64(gen.Sent)
	}
	out.set("trafficgen.emit_ns", median(per))
}

// isoScheduler: schedule+fire of one detached event with depth events
// pending, the depth the workload's own heap typically holds.
func isoScheduler(out *layerOut, depth int, sz sizing) {
	sim := netsim.New(sz.seed)
	var fn func()
	fn = func() { sim.ScheduleDetached(netsim.Duration(depth), fn) }
	for i := 0; i < depth; i++ {
		sim.ScheduleDetached(netsim.Duration(i+1), fn)
	}
	out.set("netsim.event_ns", timeLoop(sz.rounds(), sz.pick(500_000, 5_000), func() { sim.Step() }))
}

// isoEngine: Engine.Submit plus the frame's completion through a no-op
// handler. ppe.engine.admit_ns (a helper value, not a reported metric) is
// the Submit call alone, timed in batches so the timer's cost is spread
// over 64 calls; it is subtracted from the link-deliver span to get the
// module shell's own cost.
func isoEngine(out *layerOut, frames [][]byte, sz sizing) {
	sim := netsim.New(sz.seed)
	eng := ppe.NewEngine(sim, build.BaseClockHz, build.BaseDatapathBits, func(ppe.Verdict, *ppe.Ctx) {})
	prog := &ppe.Program{Name: "noop", Version: 1, Stages: 1,
		Handler: ppe.HandlerFunc(func(*ppe.Ctx) ppe.Verdict { return ppe.VerdictPass })}
	if err := eng.SetProgram(prog); err != nil {
		panic(err) // a one-stage named program always validates
	}
	i := 0
	out.set("ppe.engine.submit_ns", timeLoop(sz.rounds(), sz.pick(300_000, 3_000), func() {
		eng.Submit(frames[i%len(frames)], ppe.DirEdgeToOptical)
		i++
		sim.Run()
	}))
	const batch = 64
	rounds := sz.pick(4_000, 50)
	per := make([]float64, sz.rounds())
	for r := range per {
		var total time.Duration
		for k := 0; k < rounds; k++ {
			t0 := time.Now()
			for j := 0; j < batch; j++ {
				eng.Submit(frames[(k*batch+j)%len(frames)], ppe.DirEdgeToOptical)
			}
			total += time.Since(t0)
			sim.Run()
		}
		per[r] = float64(total.Nanoseconds()) / float64(rounds*batch)
	}
	out.set("ppe.engine.admit_ns", median(per))
}

func isoViewParse(out *layerOut, name string, frames [][]byte, sz sizing) {
	var v packet.View
	i := 0
	out.set(name, timeLoop(sz.rounds(), sz.pick(2_000_000, 10_000), func() {
		v.Parse(frames[i%len(frames)])
		i++
	}))
}

// isoTable: Lookup over keys live entries visited in a scattered order,
// and Delete+Add of one entry beside them (reported per write).
func isoTable(out *layerOut, keys int, sz sizing) {
	t := ppe.NewTable(ppe.TableSpec{Name: "nat", Kind: ppe.TableExact, KeyBits: 32, ValueBits: 32, Size: apps.NATTableSize})
	ks := make([][4]byte, keys)
	for f := range ks {
		ks[f] = natInternal(f)
		ex := natExternal(f)
		if err := t.Add(ks[f][:], ex[:]); err != nil {
			panic(err) // keys are distinct and fewer than the table size
		}
	}
	i := 0
	out.set("ppe.table.lookup_ns", timeLoop(sz.rounds(), sz.pick(2_000_000, 10_000), func() {
		t.Lookup(ks[i*7919%keys][:])
		i++
	}))
	out.set("ppe.table.write_ns", timeLoop(sz.rounds(), sz.pick(200_000, 2_000), func() {
		_ = t.Delete(coldInternal[:]) // absent on the first call only
		if err := t.Add(coldInternal[:], coldExternal[:]); err != nil {
			panic(err)
		}
	})/2)
}

// isoHandler: the workload's own app handler on its own frames, with the
// headers restored before each call (NAT rewrites them in place).
func isoHandler(out *layerOut, spec cableSpec, frames [][]byte, sz sizing) {
	c, err := newCable(spec, sz.seed, nil, false)
	if err != nil {
		panic(fmt.Sprintf("isolated %s handler: %v", spec.app, err))
	}
	h := c.mod.Engine().Program().Handler
	scratch := make([][]byte, len(frames))
	for i, f := range frames {
		scratch[i] = append([]byte(nil), f...)
	}
	var ctx ppe.Ctx
	i := 0
	out.set(spec.handler, timeLoop(sz.rounds(), sz.pick(1_000_000, 5_000), func() {
		k := i % len(frames)
		i++
		copy(scratch[k][:42], frames[k][:42])
		ctx = ppe.Ctx{Data: scratch[k], Dir: ppe.DirEdgeToOptical}
		h.HandlePacket(&ctx)
	}))
}

func isoXDP(out *layerOut, frames [][]byte, sz sizing) {
	prog := apps.CanonicalXDPProgram()
	if err := prog.Verify(); err != nil {
		panic(err)
	}
	i := 0
	ns := timeLoop(sz.rounds(), sz.pick(1_000_000, 5_000), func() {
		_, _ = prog.Run(frames[i%len(frames)]) // verdict checked by the workload's output check
		i++
	})
	out.set("xdp.run_ns", ns)
	out.set("xdp.ns_per_insn", ns/float64(len(prog.Insns)))
}

// isoMgmtDirect: the control plane without a socket: codec alone, the
// agent on a pre-encoded request, and a whole client call in process.
func isoMgmtDirect(out *layerOut, sz sizing) {
	sim := netsim.New(sz.seed)
	mod, _, err := build.Module(sim, build.ModuleSpec{Name: "iso", DeviceID: 1, Shell: hls.TwoWayCore, App: "nat"})
	if err != nil {
		panic(err)
	}
	agent := mgmt.NewAgent(mod)
	direct := mgmt.TransportFunc(func(r []byte) ([]byte, error) { return agent.Handle(r), nil })
	client := mgmt.NewClient(direct)
	key, val := natInternal(7), natExternal(7)
	if err := client.TableAdd("nat", key[:], val[:]); err != nil {
		panic(err)
	}
	// One TableGet through a recording transport yields the encoded
	// request the codec and agent drivers replay.
	var get []byte
	if _, err := mgmt.NewClient(mgmt.TransportFunc(func(r []byte) ([]byte, error) {
		get = append([]byte(nil), r...)
		return direct(r)
	})).TableGet("nat", key[:]); err != nil {
		panic(err)
	}
	msg, err := mgmt.DecodeMessage(get)
	if err != nil {
		panic(err)
	}

	n := sz.pick(200_000, 2_000)
	out.set("mgmt.codec.encdec_ns", timeLoop(sz.rounds(), n, func() {
		if _, err := mgmt.DecodeMessage(msg.Encode()); err != nil {
			panic(err)
		}
	}))
	out.set("mgmt.agent.handle_ns", timeLoop(sz.rounds(), n, func() { agent.Handle(get) }))
	out.set("mgmt.client.direct_rpc_ns", timeLoop(sz.rounds(), n, func() {
		if _, err := client.TableGet("nat", key[:]); err != nil {
			panic(err)
		}
	}))
}

// isoImage: HMAC verification and the flash store of a signed image, the
// two host costs inside an OTA commit, plus the modeled program time.
func isoVerify(out *layerOut, signed []byte, sz sizing) {
	mib := float64(len(signed)) / (1 << 20)
	ns := timeLoop(sz.rounds(), sz.pick(20, 2), func() {
		if _, err := bitstream.Verify(signed, build.DefaultAuthKey); err != nil {
			panic(err)
		}
	})
	out.set("bitstream.verify_us_per_mib", ns/1e3/mib)
}

func isoFlash(out *layerOut, signed []byte, sz sizing) {
	body, err := bitstream.Verify(signed, build.DefaultAuthKey)
	if err != nil {
		panic(err)
	}
	mib := float64(len(body)) / (1 << 20)
	dev := flash.New()
	var modeled netsim.Duration
	slot := 2
	ns := timeLoop(sz.rounds(), sz.pick(6, 1), func() {
		d, err := dev.StoreBitstream(slot, body)
		if err != nil {
			panic(err)
		}
		modeled = d
		slot ^= 1
	})
	out.set("flash.store_ms_per_mib", ns/1e6/mib)
	out.set("flash.modeled_program_ms", float64(modeled)/float64(netsim.Millisecond))
}

func isoBuildModule(out *layerOut, spec build.ModuleSpec, sz sizing) {
	out.set("build.module_ms", timeLoop(3, 1, func() {
		if _, _, err := build.Module(netsim.New(sz.seed), spec); err != nil {
			panic(err)
		}
	})/1e6)
}

// isoOverlayControl: Controller.Sync with nothing to do, Sync after a
// peer left and came back, and the rendezvous table at 64 peers.
func isoOverlayControl(out *layerOut, sz sizing) {
	fab, err := overlay.NewFabric(overlay.FabricSpec{Sh: netsim.NewSharded(sz.seed, 1), Cables: overlayCables})
	if err != nil {
		panic(err)
	}
	if err := fab.RegisterAll(); err != nil {
		panic(err)
	}
	ctl := fab.Cables[0].Ctl
	sync := func() {
		if _, err := ctl.Sync(); err != nil {
			panic(err)
		}
	}
	out.set("overlay.sync_noop_us", timeLoop(sz.rounds(), sz.pick(2_000, 20), sync)/1e3)

	last := fab.Cables[overlayCables-1]
	n := sz.pick(500, 5)
	per := make([]float64, sz.rounds())
	for r := range per {
		var total time.Duration
		for i := 0; i < n; i++ {
			if err := fab.Withdraw(0, last.Name); err != nil {
				panic(err)
			}
			t0 := time.Now()
			sync()
			total += time.Since(t0)
			if _, err := last.Ctl.Register(); err != nil {
				panic(err)
			}
			t0 = time.Now()
			sync()
			total += time.Since(t0)
		}
		per[r] = float64(total.Nanoseconds()) / float64(2*n) / 1e3
	}
	out.set("overlay.sync_churn_us", median(per))

	rdv := overlay.NewRendezvous()
	for i := 0; i < 64; i++ {
		rdv.Register(mgmt.OverlayEndpoint{
			Name: fmt.Sprintf("peer-%02d", i), IP: overlay.CableIP(i), MAC: overlay.CableMAC(i),
			Mode: apps.MeshModeGRE, Prefixes: []mgmt.OverlayPrefix{overlay.DefaultPrefix(i)},
		})
	}
	out.set("overlay.rendezvous.table_us", timeLoop(sz.rounds(), sz.pick(5_000, 50), func() { rdv.Table() })/1e3)
}

// isoMesh: the mesh handler's two directions on the workload's frames:
// encap on the sending cable, decap of that output on the receiving one.
func isoMesh(out *layerOut, frames [][]byte, sz sizing) {
	fab, err := overlay.NewFabric(overlay.FabricSpec{Sh: netsim.NewSharded(sz.seed, 1), Cables: overlayCables})
	if err != nil {
		panic(err)
	}
	if err := fab.RegisterAll(); err != nil {
		panic(err)
	}
	encap := fab.Cables[0].Mod.Engine().Program().Handler
	decap := fab.Cables[1].Mod.Engine().Program().Handler
	outer := make([][]byte, len(frames))
	var ctx ppe.Ctx
	for i, f := range frames {
		ctx = ppe.Ctx{Data: f, Dir: ppe.DirEdgeToOptical}
		if encap.HandlePacket(&ctx) != ppe.VerdictPass || len(ctx.Data) <= len(f) {
			panic("isolated mesh encap did not encapsulate")
		}
		outer[i] = append([]byte(nil), ctx.Data...)
	}
	i := 0
	n := sz.pick(500_000, 2_000)
	out.set("apps.mesh.encap_ns", timeLoop(sz.rounds(), n, func() {
		ctx = ppe.Ctx{Data: frames[i%len(frames)], Dir: ppe.DirEdgeToOptical}
		i++
		encap.HandlePacket(&ctx)
	}))
	out.set("apps.mesh.decap_ns", timeLoop(sz.rounds(), n, func() {
		ctx = ppe.Ctx{Data: outer[i%len(outer)], Dir: ppe.DirOpticalToEdge}
		i++
		decap.HandlePacket(&ctx)
	}))
}
