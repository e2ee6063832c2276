package daemon

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"flexsfp/internal/bitstream"
	"flexsfp/internal/faults"
	"flexsfp/internal/telemetry"
)

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

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
	allocs := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.0f B and %.1f allocations per member", perMember, allocs)
	if perMember > 1024 {
		t.Errorf("BuildSimFleet allocates %.0f B per member, want <= 1024", perMember)
	}
	// Members, slots and names come from one array each; what is left per
	// member is its injector.
	if allocs > 3 {
		t.Errorf("BuildSimFleet makes %.1f allocations per member, want <= 3", allocs)
	}
	for _, i := range []int{0, 7, 999, n - 1} {
		if got, want := members[i].Name(), fmt.Sprintf("sim-%06d", i); got != want {
			t.Errorf("member %d is named %q, want %q", i, got, want)
		}
	}
}

// TestSimNameMatchesSprintf: the allocation-free name formatter agrees
// with sim-%06d past the six-digit width.
func TestSimNameMatchesSprintf(t *testing.T) {
	for _, i := range []int{0, 9, 10, 99_999, 100_000, 999_999, 1_000_000, 12_345_678} {
		if got, want := string(appendSimName(nil, i)), fmt.Sprintf("sim-%06d", i); got != want {
			t.Errorf("appendSimName(%d) = %q, want %q", i, got, want)
		}
	}
}

// TestSimMemberPushZeroAlloc: a clean push, its boot (which re-verifies
// the image) and the health read allocate nothing.
func TestSimMemberPushZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	img := simImage(t, 3)
	m := NewSimMember("sim-x", faults.New(1, faults.Rates{}).Derive(0),
		SimMemberConfig{Key: simKey}, 3, 1, img)
	var err error
	n := testing.AllocsPerRun(100, func() {
		if err = m.Push(img, 2, true); err == nil {
			_, err = m.Stats()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("push+boot+stats allocates %v times, want 0", n)
	}
	if st, _ := m.Stats(); !st.Running || st.ActiveSlot != 2 || st.GoldenFallbacks != 0 {
		t.Errorf("after clean pushes: %+v", st)
	}
}

// TestAggregateTelemetryAllocsFlat: the fold reads every member through one
// reused snapshot per shard, so its allocations do not grow with the fleet.
func TestAggregateTelemetryAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		members, _ := chaosFleet(t, n, 5)
		c := NewFleetController(FleetConfig{Shards: 8, TargetSlot: 2}, members)
		var snap telemetry.Snapshot
		a := testing.AllocsPerRun(5, func() { snap, _ = c.AggregateTelemetry() })
		if v, ok := snap.Counter("ota_boots"); !ok || v != 0 {
			t.Fatalf("%d members: ota_boots = %d (%v), want 0 before any rollout", n, v, ok)
		}
		if h, ok := snap.Histogram("ota_member_cost_ns"); !ok || h.Count != uint64(n) {
			t.Fatalf("%d members: cost histogram %+v, want %d samples", n, h, n)
		}
		return a
	}
	small, large := allocs(1_000), allocs(4_000)
	t.Logf("AggregateTelemetry: %v allocations at 1k members, %v at 4k", small, large)
	if large > small+16 {
		t.Errorf("fold allocations grow with the fleet: %v at 1k members, %v at 4k", small, large)
	}
}

// TestSimMemberReverifiesEveryBoot: a boot verifies the slot's bytes as
// they are now, not a verdict remembered for that slice. A payload byte
// flipped in place in the running slot makes its next boot fall back.
func TestSimMemberReverifiesEveryBoot(t *testing.T) {
	m := NewSimMember("sim-x", faults.New(1, faults.Rates{}).Derive(0),
		SimMemberConfig{Key: simKey}, 3, 1, simImage(t, 3))
	private := simImage(t, 4) // the member's own copy, stored without copying
	if err := m.Push(private, 2, true); err != nil {
		t.Fatal(err)
	}
	before, _ := m.Stats()
	if before.ActiveSlot != 2 || !before.Running {
		t.Fatalf("clean push: %+v, want running on slot 2", before)
	}

	private[bitstream.HeaderSize+17] ^= 0x01
	if err := m.Reboot(2); err == nil {
		t.Error("Reboot(2) booted a slot whose payload changed after it verified")
	}
	after, _ := m.Stats()
	if after.GoldenFallbacks != before.GoldenFallbacks+1 {
		t.Errorf("GoldenFallbacks = %d, want %d", after.GoldenFallbacks, before.GoldenFallbacks+1)
	}
	if after.Running || !m.OnBadImage() {
		t.Errorf("running=%v onBadImage=%v on the tampered slot, want down and flagged", after.Running, m.OnBadImage())
	}
	if err := m.Reboot(1); err != nil {
		t.Errorf("rollback to the untouched slot 1: %v", err)
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
