package daemon

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"unsafe"

	"flexsfp/internal/bitstream"
	"flexsfp/internal/faults"
	"flexsfp/internal/telemetry"
)

// NewSimMember builds a member with goodImage installed and running in
// slot startSlot. inj is the member's private injector (typically
// parent.Derive(lane)).
func NewSimMember(name string, inj faults.Injector, cfg SimMemberConfig, slots, startSlot int, goodImage []byte) *SimMember {
	shared := &simShared{SimMemberConfig: cfg}
	version, _ := shared.memo.version(goodImage, cfg.Key)
	m := new(SimMember)
	m.init(name, inj, shared, make([]simSlot, max(slots, 2)), startSlot, goodImage, version)
	return m
}

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// TestBuildSimFleetBytesPerMember pins what a simulated member costs to
// build: with math/rand's 607-word source under every lane it was ≈6 KiB,
// which is what put a 1M-member fleet out of reach. A member embeds its
// injector and shares the fleet's config, so the build's allocation count
// does not grow with the fleet.
func TestBuildSimFleetBytesPerMember(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	parent := faults.New(1, faults.Rates{ConnDrop: 0.02})
	cfg := SimMemberConfig{Key: simKey, TamperProb: 0.01}
	img := simImage(t, 3)
	// The build verifies the image once, through bitstream's per-P pools:
	// one P keeps them warm between builds, and the collector stays off so
	// it cannot empty them mid-measurement. The fewest of three builds
	// counts.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	build := func(n int) (allocs, bytes uint64) {
		allocs = math.MaxUint64
		for range 3 {
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			members := BuildSimFleet(n, parent, cfg, 4, 1, img)
			runtime.ReadMemStats(&after)
			if len(members) != n {
				t.Fatalf("built %d members, want %d", len(members), n)
			}
			for _, i := range []int{0, 7, n / 2, n - 1} {
				if got, want := members[i].Name(), fmt.Sprintf("sim-%06d", i); got != want {
					t.Fatalf("member %d is named %q, want %q", i, got, want)
				}
			}
			allocs = min(allocs, after.Mallocs-before.Mallocs)
			bytes = after.TotalAlloc - before.TotalAlloc
		}
		return allocs, bytes
	}
	const n = 10_000
	small, _ := build(n / 10)
	allocs, bytes := build(n)
	perMember := float64(bytes) / n
	t.Logf("%d allocations for %d members, %d for %d; %.0f B per member", small, n/10, allocs, n, perMember)
	if allocs != small {
		t.Errorf("BuildSimFleet makes %d allocations for %d members and %d for %d, want the same count", small, n/10, allocs, n)
	}
	if perMember > 400 {
		t.Errorf("BuildSimFleet allocates %.0f B per member, want <= 400", perMember)
	}
}

// TestSimMemberHotSpan pins SimMember's field order: every field Stats
// and Telemetry read lies in one 64-byte span from the first of them, so
// a controller pass over a cold member reads that span, not fields spread
// over two or three lines. It checks the span, not its alignment: in
// BuildSimFleet's array an odd-indexed member's span crosses a line.
func TestSimMemberHotSpan(t *testing.T) {
	var m SimMember
	hot := []struct {
		name      string
		off, size uintptr
	}{
		{"statsReads", unsafe.Offsetof(m.statsReads), unsafe.Sizeof(m.statsReads)},
		{"activeSlot", unsafe.Offsetof(m.activeSlot), unsafe.Sizeof(m.activeSlot)},
		{"boots", unsafe.Offsetof(m.boots), unsafe.Sizeof(m.boots)},
		{"fallbacks", unsafe.Offsetof(m.fallbacks), unsafe.Sizeof(m.fallbacks)},
		{"pushes", unsafe.Offsetof(m.pushes), unsafe.Sizeof(m.pushes)},
		{"retries", unsafe.Offsetof(m.retries), unsafe.Sizeof(m.retries)},
		{"costNs", unsafe.Offsetof(m.costNs), unsafe.Sizeof(m.costNs)},
		{"running", unsafe.Offsetof(m.running), unsafe.Sizeof(m.running)},
		{"wedged", unsafe.Offsetof(m.wedged), unsafe.Sizeof(m.wedged)},
		{"lateWedged", unsafe.Offsetof(m.lateWedged), unsafe.Sizeof(m.lateWedged)},
	}
	lo := hot[0].off
	for _, f := range hot {
		lo = min(lo, f.off)
	}
	for _, f := range hot {
		if f.off+f.size > lo+64 {
			t.Errorf("SimMember.%s lies at bytes [%d, %d), outside the hot span [%d, %d)",
				f.name, f.off, f.off+f.size, lo, lo+64)
		}
	}
	if size := unsafe.Sizeof(m); size > 224 {
		t.Errorf("SimMember is %d B, want <= 224", size)
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

// TestSimMemberPushZeroAlloc: a clean push, its boot (which judges the
// image through the fleet's memo) and the health read allocate nothing.
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

// memoKeys are the keys the memo tests look images up under: the fleet's,
// and a second one that must never share a verdict with it.
var memoKeys = [][]byte{simKey, []byte("fleet-ota-key-2")}

// memoPool is what the memo tests look up: the two fleet images, each
// faults.TamperSigned mode of the target, a truncated copy, the target
// signed under the second key, and five more passing versions, so a
// memo's four entries are evicted.
func memoPool(t testing.TB) [][]byte {
	t.Helper()
	old, target := simImage(t, 3), simImage(t, 9)
	body, err := bitstream.Verify(target, simKey)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(1, faults.Rates{})
	pool := [][]byte{old, target}
	for mode := faults.TamperCRC; mode <= faults.TamperStale; mode++ {
		pool = append(pool, inj.TamperSigned(target, simKey, mode))
	}
	pool = append(pool, target[:len(target)-1], bitstream.Sign(body, memoKeys[1]))
	for v := uint32(10); v < 15; v++ {
		pool = append(pool, simImage(t, v))
	}
	return pool
}

// checkMemo looks img up through the memo and holds the answer to
// imageVersion's on the same bytes and key.
func checkMemo(t testing.TB, memo *verifiedMemo, img, key []byte) {
	gotV, gotOK := memo.version(img, key)
	if wantV, wantOK := imageVersion(img, key); gotV != wantV || gotOK != wantOK {
		t.Errorf("memo says (%d, %v) for a %d-byte image under key %q, imageVersion says (%d, %v)",
			gotV, gotOK, len(img), key, wantV, wantOK)
	}
}

// FuzzVerifiedMemoVsImageVersion runs a byte-chosen sequence of operations
// through one memo, two bytes (op, arg) each. An even op looks up pool
// image arg (one past the pool is a private copy of the target) under key
// op>>1&1; an odd op flips bit op>>1&7 of that private copy in place, at a
// position scaled from arg. Every lookup must answer what imageVersion
// answers.
func FuzzVerifiedMemoVsImageVersion(f *testing.F) {
	pool := memoPool(f)
	const own = 13 // the private copy's index; memoPool holds 13 images
	if len(pool) != own {
		f.Fatalf("memoPool holds %d images, want %d", len(pool), own)
	}
	// A payload byte, flipped after the copy has hit.
	f.Add([]byte{0, 1, 0, own, 1, 100, 0, own, 0, 1})
	// The target under the second key, and the second key's image under the
	// first.
	f.Add([]byte{0, 1, 2, 1, 2, 8, 0, 8})
	// A failing image, looked up twice.
	f.Add([]byte{0, 2, 0, 2, 0, 4, 0, 4, 0, 3, 0, 3, 0, 7, 0, 7})
	// Eviction: six passing images, then the first two again.
	f.Add([]byte{0, 0, 0, 1, 0, 9, 0, 10, 0, 11, 0, 12, 0, 5, 0, 0, 0, 1, 2, 8})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var memo verifiedMemo
		mine := bytes.Clone(pool[1])
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], int(ops[i+1])
			if op&1 == 1 {
				mine[arg*len(mine)/256] ^= 1 << (op >> 1 & 7)
				continue
			}
			img := mine
			if k := arg % (own + 1); k < own {
				img = pool[k]
			}
			checkMemo(t, &memo, img, memoKeys[op>>1&1])
		}
	})
}

// TestVerifiedMemoConcurrent: shard workers share a fleet's memo. Eight
// goroutines look up passing, failing and second-key images at once (the
// passing ones outnumber the entries, so stores and evictions race with
// lookups), and every answer is imageVersion's.
func TestVerifiedMemoConcurrent(t *testing.T) {
	pool := memoPool(t)
	var memo verifiedMemo
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 * len(pool) {
				checkMemo(t, &memo, pool[(i+g)%len(pool)], memoKeys[(i/len(pool)+g)%2])
			}
		}()
	}
	wg.Wait()
}

// TestSimRolloutVerifiesPerImage counts full verifications over
// TestSimRolloutReportPinned's rollout. Each shard worker verifies a
// passing image in full at most once (the memo holds every one a rollout
// keeps live: the old image, the target and the target's stale re-signed
// copy), and a boot that falls back verifies at most two failing images:
// the slot it tried and the slot it returns to. Without the memo every
// boot verifies in full.
func TestSimRolloutVerifiesPerImage(t *testing.T) {
	const shards, passing = 8, 3
	members, img := chaosFleet(t, 5000, 23)
	NewFleetController(FleetConfig{
		Shards: shards, TargetSlot: 2, Canaries: 4, WaveSize: 64, Bake: true,
		MaxFailureFrac: 0.5, GlobalMaxFailureFrac: 0.8,
		WaveCost: slowestPush,
	}, members).Rollout(img)
	var boots, fallbacks uint64
	for _, fm := range members {
		m := fm.(*SimMember)
		boots += m.boots
		fallbacks += m.fallbacks
	}
	misses := members[0].(*SimMember).cfg.memo.misses.Load()
	t.Logf("%d boots, %d fallbacks, %d full verifications", boots, fallbacks, misses)
	if bound := 2*fallbacks + shards*passing; misses > bound {
		t.Errorf("%d full verifications over %d boots, want at most 2×%d fallbacks + %d×%d images = %d",
			misses, boots, fallbacks, shards, passing, bound)
	}
}
