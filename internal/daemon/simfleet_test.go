package daemon

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"

	"flexsfp/internal/faults"
)

// TestBuildSimFleetBytesPerMember pins what a simulated member costs to
// build: with math/rand's 607-word source under every lane it was ≈6 KiB,
// which is what put a 1M-member fleet out of reach.
func TestBuildSimFleetBytesPerMember(t *testing.T) {
	const n = 10_000
	parent := faults.New(1, faults.Rates{ConnDrop: 0.02})
	cfg := SimMemberConfig{Key: simKey, TamperProb: 0.01}
	img := simImage(t, 3)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	members := BuildSimFleet(n, parent, cfg, 4, 1, img)
	runtime.ReadMemStats(&after)
	if len(members) != n {
		t.Fatalf("built %d members, want %d", len(members), n)
	}
	perMember := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.0f B and %.1f allocations per member",
		perMember, float64(after.Mallocs-before.Mallocs)/n)
	if perMember > 1024 {
		t.Errorf("BuildSimFleet allocates %.0f B per member, want <= 1024", perMember)
	}
}

// TestSimRolloutReportPinned pins every byte of a seeded chaos rollout's
// report: 5000 members, 8 shards, bake on, 21 late wedges caught. It was
// captured with the bake still testing each member of the pushed batch for
// membership in the updated set; making the bake set the wave's own
// updates is an optimisation and may not move it.
func TestSimRolloutReportPinned(t *testing.T) {
	members, img := chaosFleet(t, 5000, 23)
	c := NewFleetController(FleetConfig{
		Shards: 8, TargetSlot: 2, Canaries: 4, WaveSize: 64, Bake: true,
		MaxFailureFrac: 0.5, GlobalMaxFailureFrac: 0.8,
		WaveCost: slowestPush,
	}, members)
	rep := c.Rollout(img)
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Updated != 4851 || rep.Failed != 149 || rep.BakeFailures != 21 ||
		rep.Remediated != 45 || rep.Waves != 13 || rep.CostNs != 111910224 {
		t.Errorf("updated=%d failed=%d bake=%d remediated=%d waves=%d cost=%d, want 4851 149 21 45 13 111910224",
			rep.Updated, rep.Failed, rep.BakeFailures, rep.Remediated, rep.Waves, rep.CostNs)
	}
	const want = "03c268d4218087260d416a6226bf416b4aaefb2b30e05f578be374f26e70bbf8"
	if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != want {
		t.Errorf("report sha256 = %x, want %s\n%s", sum, want, b)
	}
}

// TestSimMemberRefusesDowngrade: the push→boot path mirrors
// core.Module.InstallSigned's anti-rollback — an image older than the one
// running is refused and the member falls back; an equal one is a re-push
// and boots — while Reboot, the rollback path, still boots the older slot.
func TestSimMemberRefusesDowngrade(t *testing.T) {
	m := NewSimMember("sim-x", faults.New(1, faults.Rates{}).Derive(0),
		SimMemberConfig{Key: simKey}, 3, 1, simImage(t, 3))
	running := func(slot int, version uint32) {
		t.Helper()
		st, _ := m.Stats()
		v, ok := m.ActiveVersion()
		if !st.Running || st.ActiveSlot != slot || !ok || v != version {
			t.Fatalf("running=%v slot=%d version=%d (verifies=%v), want slot %d running v%d",
				st.Running, st.ActiveSlot, v, ok, slot, version)
		}
	}
	running(1, 3)

	if err := m.Push(simImage(t, 1), 2, true); err != nil {
		t.Fatal(err)
	}
	running(1, 3) // v1 < v3: refused, fell back
	if m.fallbacks != 1 {
		t.Errorf("fallbacks = %d after a refused downgrade, want 1", m.fallbacks)
	}

	if err := m.Push(simImage(t, 3), 2, true); err != nil {
		t.Fatal(err)
	}
	running(2, 3) // equal version: idempotent re-push

	if err := m.Push(simImage(t, 9), 0, true); err != nil {
		t.Fatal(err)
	}
	running(0, 9)

	if err := m.Reboot(2); err != nil {
		t.Fatalf("rollback to the older slot refused: %v", err)
	}
	running(2, 3)

	if err := m.Push(simImage(t, 9), 1, true); err != nil {
		t.Fatal(err)
	}
	running(1, 9) // the rollback lowered the floor with it
}
