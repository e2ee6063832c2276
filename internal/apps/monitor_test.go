package apps

import (
	"testing"

	"flexsfp/internal/ppe"
)

func monitorAt(t *testing.T, cfg MonitorConfig) *monitorApp {
	t.Helper()
	a := NewMonitor()
	if err := a.Configure(mustJSON(t, cfg)); err != nil {
		t.Fatal(err)
	}
	return a
}

func feed(a *monitorApp, tsNs uint64, dir ppe.Direction) {
	ctx := &ppe.Ctx{Data: make([]byte, 64), Dir: dir, TimestampNs: tsNs}
	a.prog.Handler.HandlePacket(ctx)
}

func TestMonitorMicroburstDetection(t *testing.T) {
	a := monitorAt(t, MonitorConfig{BurstFrames: 10, BurstWindowNs: 1000, GapNs: 1e9})
	// Steady traffic at 5 µs spacing: no bursts.
	for i := uint64(0); i < 20; i++ {
		feed(a, i*5000, ppe.DirEdgeToOptical)
	}
	if n, _ := a.ctr.Read(MonMicrobursts); n != 0 {
		t.Fatalf("steady traffic flagged %d bursts", n)
	}
	// A spike: 15 frames within 500 ns.
	base := uint64(200_000)
	for i := uint64(0); i < 15; i++ {
		feed(a, base+i*30, ppe.DirEdgeToOptical)
	}
	if n, _ := a.ctr.Read(MonMicrobursts); n != 1 {
		t.Errorf("microbursts = %d, want 1 (fired once per window)", n)
	}
}

func TestMonitorBurstFiresOncePerWindow(t *testing.T) {
	a := monitorAt(t, MonitorConfig{BurstFrames: 5, BurstWindowNs: 1000, GapNs: 1e9})
	// 50 frames inside one window: still a single event.
	for i := uint64(0); i < 50; i++ {
		feed(a, 1000+i*10, ppe.DirEdgeToOptical)
	}
	if n, _ := a.ctr.Read(MonMicrobursts); n != 1 {
		t.Errorf("microbursts = %d, want 1", n)
	}
}

func TestMonitorFlapDetection(t *testing.T) {
	a := monitorAt(t, MonitorConfig{GapNs: 1_000_000, BurstFrames: 1000, BurstWindowNs: 1})
	feed(a, 0, ppe.DirOpticalToEdge)
	feed(a, 500_000, ppe.DirOpticalToEdge) // 0.5 ms gap: fine
	if n, _ := a.ctr.Read(MonFlaps); n != 0 {
		t.Fatal("normal gap flagged as flap")
	}
	feed(a, 3_000_000, ppe.DirOpticalToEdge) // 2.5 ms of silence: flap
	if n, _ := a.ctr.Read(MonFlaps); n != 1 {
		t.Errorf("flaps = %d, want 1", n)
	}
}

func TestMonitorDirectionsIndependent(t *testing.T) {
	a := monitorAt(t, MonitorConfig{GapNs: 1_000_000, BurstFrames: 1000, BurstWindowNs: 1})
	feed(a, 0, ppe.DirEdgeToOptical)
	// Long silence on edge→optical only; optical→edge stays quiet
	// throughout (its first frame ever does not count as a flap).
	feed(a, 5_000_000, ppe.DirOpticalToEdge)
	if n, _ := a.ctr.Read(MonFlaps); n != 0 {
		t.Error("first frame on a direction counted as flap")
	}
	feed(a, 6_000_000, ppe.DirEdgeToOptical) // 6 ms gap on its own direction
	if n, _ := a.ctr.Read(MonFlaps); n != 1 {
		t.Errorf("flaps = %d, want 1", n)
	}
}

func TestMonitorDefaults(t *testing.T) {
	a := NewMonitor()
	if err := a.Configure(nil); err != nil {
		t.Fatal(err)
	}
	if a.cfg.BurstFrames != 32 || a.cfg.GapNs != 1_000_000_000 {
		t.Errorf("defaults = %+v", a.cfg)
	}
	if err := a.Configure([]byte("{bad")); err == nil {
		t.Error("bad JSON accepted")
	}
}

func TestMonitorInRegistry(t *testing.T) {
	r := NewRegistry()
	app, err := r.New("monitor")
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Program().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := app.Configure(nil); err != nil {
		t.Fatal(err)
	}
}
