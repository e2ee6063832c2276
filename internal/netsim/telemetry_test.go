package netsim

import (
	"testing"

	"flexsfp/internal/telemetry"
)

func TestLinkTelemetryTraceHops(t *testing.T) {
	sim := New(1)
	tr := telemetry.NewTracer(1, 64)
	var deliveredID uint64
	l := NewLink(sim, 10_000_000_000, 5*Microsecond, func(data []byte) {
		// The ambient register must carry the frame's trace ID across the
		// synchronous delivery chain.
		deliveredID = tr.Current()
	})
	l.SetTelemetry(tr, nil)

	id, _ := tr.Sample()
	tr.SetCurrent(id)
	if !l.Send(make([]byte, 64)) {
		t.Fatal("send refused")
	}
	tr.SetCurrent(0)
	sim.Run()

	if deliveredID != id {
		t.Fatalf("delivery saw trace ID %d, want %d", deliveredID, id)
	}
	if tr.Current() != 0 {
		t.Fatal("ambient trace ID leaked past delivery")
	}
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want tx+rx", len(evs))
	}
	if evs[0].Stage != telemetry.StageLinkTx || evs[1].Stage != telemetry.StageLinkRx {
		t.Fatalf("hop stages = %v, %v", evs[0].Stage, evs[1].Stage)
	}
	if evs[0].ID != id || evs[1].ID != id || evs[0].Len != 64 {
		t.Fatalf("hop fields wrong: %+v", evs)
	}
	if evs[1].TimeNs <= evs[0].TimeNs {
		t.Fatalf("delivery not after tx-done: %d vs %d", evs[1].TimeNs, evs[0].TimeNs)
	}
}

func TestLinkTelemetryQueueDepth(t *testing.T) {
	sim := New(1)
	reg := telemetry.New()
	depth := reg.Histogram("link.queue_depth", telemetry.LinearBuckets(0, 1, 8))
	l := NewLink(sim, 1_000_000_000, 0, func([]byte) {})
	l.SetTelemetry(nil, depth)
	for i := 0; i < 5; i++ {
		l.Send(make([]byte, 1518)) // same instant: frames queue behind the first
	}
	if depth.Count() != 5 {
		t.Fatalf("observed %d sends", depth.Count())
	}
	if depth.Max() != 4 {
		t.Fatalf("max queue depth = %d, want 4", depth.Max())
	}
	sim.Run()
}

func TestSimulatorAttachTelemetry(t *testing.T) {
	sim := New(1)
	reg := telemetry.New()
	sim.AttachTelemetry(reg, "sim")
	sim.ScheduleDetached(10, func() {})
	sim.ScheduleDetached(10, func() {}) // same timestamp: zero gap
	sim.ScheduleDetached(30, func() {})
	gauges := func() map[string]float64 {
		m := map[string]float64{}
		for _, g := range reg.Snapshot().Gauges {
			m[g.Name] = g.Value
		}
		return m
	}
	if v, ok := gauges()["sim.pending_events"]; !ok || v != 3 {
		t.Fatalf("pending_events = %v (ok=%v)", v, ok)
	}
	sim.Run()
	g := gauges()
	if v := g["sim.fired_events"]; v != 3 {
		t.Fatalf("fired_events = %v", v)
	}
	if v := g["sim.now_ns"]; v != 30 {
		t.Fatalf("now_ns = %v", v)
	}
	gap, ok := reg.Snapshot().Histogram("sim.event_gap_ns")
	if !ok || gap.Count != 3 {
		t.Fatalf("event_gap_ns = %+v (ok=%v)", gap, ok)
	}
	// Gaps: 10 (0→10), 0 (10→10), 20 (10→30).
	if gap.Min != 0 || gap.Max != 20 || gap.Sum != 30 {
		t.Fatalf("gap min/max/sum = %d/%d/%d", gap.Min, gap.Max, gap.Sum)
	}
}

// TestLinkSendTelemetryZeroAlloc pins the instrumented link hot path —
// trace capture, depth observation, tx/rx hops, ambient hand-off — at
// zero allocations once pools are warm.
func TestLinkSendTelemetryZeroAlloc(t *testing.T) {
	sim := New(1)
	reg := telemetry.New()
	tr := telemetry.NewTracer(1, 256)
	depth := reg.Histogram("link.queue_depth", telemetry.LinearBuckets(0, 1, 8))
	l := NewLink(sim, 10_000_000_000, Microsecond, func([]byte) {})
	l.SetTelemetry(tr, depth)
	frame := make([]byte, 64)
	for i := 0; i < 8; i++ {
		l.Send(frame)
		sim.Run()
	}
	if n := testing.AllocsPerRun(200, func() {
		id, _ := tr.Sample()
		tr.SetCurrent(id)
		if !l.Send(frame) {
			t.Fatal("send refused")
		}
		tr.SetCurrent(0)
		sim.Run()
	}); n != 0 {
		t.Fatalf("instrumented Link.Send allocates %v per run, want 0", n)
	}
}

// TestShardedTelemetry: the window-loop gauges read what Stats reports.
func TestShardedTelemetry(t *testing.T) {
	const n = portalRingSize + 10
	sh := NewSharded(1, 2)
	reg := telemetry.New()
	sh.AttachTelemetry(reg, "pdes")
	p := sh.Connect(0, 1, 10, func([]byte) {})
	data := []byte{1}
	sh.Shard(0).ScheduleAt(1, func() {
		for i := 0; i < n; i++ {
			p.Send(data)
		}
	})
	sh.Run()
	st := sh.Stats()
	got := map[string]float64{}
	for _, g := range reg.Snapshot().Gauges {
		got[g.Name] = g.Value
	}
	for name, want := range map[string]float64{
		"pdes.windows":       float64(st.Windows),
		"pdes.events":        float64(st.Events),
		"pdes.imbalance":     st.Imbalance(),
		"pdes.spin_waits":    float64(st.SpinWaits),
		"pdes.yield_waits":   float64(st.YieldWaits),
		"pdes.park_waits":    float64(st.ParkWaits),
		"pdes.portal_msgs":   n,
		"pdes.portal_spills": 10,
	} {
		if v, ok := got[name]; !ok || v != want {
			t.Errorf("%s = %v (registered %v), want %v", name, v, ok, want)
		}
	}
	if got["pdes.windows"] != 2 {
		t.Errorf("pdes.windows = %v, want 2", got["pdes.windows"])
	}
}
