package flexsfp

// End-to-end telemetry integration: a traced frame's hops must form the
// complete generator → link → module → PPE → egress chain, and the metric
// snapshot must agree with the traffic actually carried.

import (
	"slices"
	"testing"

	"flexsfp/internal/apps"
	"flexsfp/internal/build"
	"flexsfp/internal/core"
	"flexsfp/internal/hls"
	"flexsfp/internal/netsim"
	"flexsfp/internal/packet"
	"flexsfp/internal/telemetry"
	"flexsfp/internal/trafficgen"
)

func TestTracedPathThroughStack(t *testing.T) {
	sim := netsim.New(7)
	mod, _, err := build.Module(sim, build.ModuleSpec{
		Name: "dut", DeviceID: 9, Shell: hls.TwoWayCore, App: "nat",
		Config: apps.NATConfig{
			Direction: "edge-to-optical",
			Mappings:  []apps.NATMapping{{Internal: "10.1.0.1", External: "203.0.113.7"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.New()
	tr := telemetry.NewTracer(2, 1024) // 1-in-2 sampling
	reg.SetTracer(tr)
	mod.AttachTelemetry(reg)
	sim.AttachTelemetry(reg, "sim")

	hostLink := netsim.NewLink(sim, igTenGig, 500, mod.RxEdge)
	hostLink.SetTelemetry(tr, reg.Histogram("link.edge.queue_depth", telemetry.LinearBuckets(0, 1, 16)))

	var egressed int
	mod.SetTx(core.PortOptical, func(b []byte) {
		egressed++
		packet.PutBuffer(b)
	})

	gen := trafficgen.New(sim, trafficgen.Config{PPS: 1_000_000, Flows: 1}, hostLink.Send)
	gen.SetTracer(tr)
	const frames = 20
	gen.Run(frames)
	sim.Run()

	if egressed != frames {
		t.Fatalf("egressed %d frames, want %d", egressed, frames)
	}

	snap := reg.Snapshot()
	if v, _ := snap.Counter("ppe.frames_in"); v != frames {
		t.Fatalf("ppe.frames_in = %d", v)
	}
	if v, _ := snap.Counter("ppe.verdict.pass"); v != frames {
		t.Fatalf("ppe.verdict.pass = %d", v)
	}
	if i := slices.IndexFunc(snap.Gauges, func(g telemetry.GaugeSnap) bool { return g.Name == "module.tx.optical" }); i < 0 || snap.Gauges[i].Value != frames {
		t.Fatalf("module.tx.optical = %+v", snap.Gauges)
	}
	if snap.TraceSeen != frames || snap.TraceSampled != frames/2 {
		t.Fatalf("trace seen/sampled = %d/%d", snap.TraceSeen, snap.TraceSampled)
	}
	if lat, ok := snap.Histogram("ppe.latency_ns"); !ok || lat.Count != frames {
		t.Fatalf("latency histogram count = %+v", lat)
	}
	if gap, ok := snap.Histogram("sim.event_gap_ns"); !ok || gap.Count == 0 {
		t.Fatal("event gap histogram empty")
	}

	// Every sampled frame must have recorded the full hop chain, in order
	// and with non-decreasing timestamps.
	wantChain := []telemetry.Stage{
		telemetry.StageGen, telemetry.StageLinkTx, telemetry.StageLinkRx,
		telemetry.StageRx, telemetry.StageSubmit, telemetry.StageVerdict,
		telemetry.StageTx,
	}
	chains := map[uint64][]telemetry.TraceEvent{}
	for _, e := range tr.Events() {
		chains[e.ID] = append(chains[e.ID], e)
	}
	if len(chains) != frames/2 {
		t.Fatalf("traced %d distinct frames, want %d", len(chains), frames/2)
	}
	for id, evs := range chains {
		if len(evs) != len(wantChain) {
			t.Fatalf("frame %d recorded %d hops, want %d: %+v", id, len(evs), len(wantChain), evs)
		}
		for i, e := range evs {
			if e.Stage != wantChain[i] {
				t.Fatalf("frame %d hop %d = %v, want %v", id, i, e.Stage, wantChain[i])
			}
			if i > 0 && e.TimeNs < evs[i-1].TimeNs {
				t.Fatalf("frame %d time went backwards at hop %d: %+v", id, i, evs)
			}
		}
	}
}
