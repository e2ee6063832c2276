package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"flexsfp/internal/apps"
	"flexsfp/internal/bitstream"
	"flexsfp/internal/build"
	"flexsfp/internal/core"
	"flexsfp/internal/faults"
	"flexsfp/internal/fpga"
	"flexsfp/internal/hls"
	"flexsfp/internal/mgmt"
	"flexsfp/internal/netsim"
	"flexsfp/internal/telemetry"
)

// fakeMember is a scripted FleetMember for exercising controller logic
// without the SimMember chaos model.
type fakeMember struct {
	name    string
	pushErr error
	wedge   bool // boots the target slot but reports not running
	late    bool // healthy on the first stats read after push, hung after

	slot       int
	running    bool
	statsReads int
	pushes     int
	reboots    int
}

func newFake(name string) *fakeMember {
	return &fakeMember{name: name, slot: 1, running: true}
}

func (m *fakeMember) Name() string { return m.name }

func (m *fakeMember) Push(signed []byte, slot int, rebootAfter bool) error {
	m.pushes++
	if m.pushErr != nil {
		return m.pushErr
	}
	m.slot = slot
	m.running = !m.wedge
	m.statsReads = 0
	return nil
}

func (m *fakeMember) Stats() (mgmt.Stats, error) {
	m.statsReads++
	running := m.running
	if m.late && m.statsReads > 1 {
		running = false
	}
	return mgmt.Stats{Running: running, ActiveSlot: m.slot}, nil
}

func (m *fakeMember) Reboot(slot int) error {
	m.reboots++
	m.slot = slot
	m.running = true
	m.wedge, m.late, m.statsReads = false, false, 0
	return nil
}

func (m *fakeMember) Telemetry(dst *telemetry.Snapshot) error {
	*dst = telemetry.Snapshot{
		Counters: []telemetry.CounterSnap{{Name: "pushes", Value: uint64(m.pushes)}},
	}
	return nil
}

func buildFakes(n int) []*fakeMember {
	ms := make([]*fakeMember, n)
	for i := range ms {
		ms[i] = newFake(fmt.Sprintf("cable-%04d", i))
	}
	return ms
}

func asMembers(fs []*fakeMember) []FleetMember {
	out := make([]FleetMember, len(fs))
	for i, f := range fs {
		out[i] = f
	}
	return out
}

func TestShardForStableAndCovering(t *testing.T) {
	const shards = 8
	counts := make([]int, shards)
	for i := 0; i < 4000; i++ {
		name := fmt.Sprintf("cable-%04d", i)
		s := ShardFor(name, shards)
		if s != ShardFor(name, shards) {
			t.Fatalf("%s: shard assignment unstable", name)
		}
		counts[s]++
	}
	for s, c := range counts {
		if c < 4000/shards/2 || c > 4000/shards*2 {
			t.Errorf("shard %d holds %d of 4000 members — hash is striping", s, c)
		}
	}
	if ShardFor("anything", 1) != 0 || ShardFor("anything", 0) != 0 {
		t.Error("degenerate shard counts must map to shard 0")
	}
}

func TestRolloutAllHealthy(t *testing.T) {
	fakes := buildFakes(100)
	c := NewFleetController(FleetConfig{
		Shards: 4, TargetSlot: 2, Canaries: 2, WaveSize: 8, Bake: true,
	}, asMembers(fakes))

	rep := c.Rollout([]byte{1})
	if rep.Modules != 100 || rep.Updated != 100 || rep.Failed != 0 {
		t.Fatalf("modules=%d updated=%d failed=%d", rep.Modules, rep.Updated, rep.Failed)
	}
	if rep.TrippedShards != 0 || rep.Aborted || rep.BadEnd != 0 {
		t.Errorf("healthy rollout: %+v", rep)
	}
	if len(rep.PerShard) != 4 {
		t.Fatalf("per-shard reports = %d", len(rep.PerShard))
	}
	for _, f := range fakes {
		if f.slot != 2 || !f.running {
			t.Errorf("%s: slot=%d running=%v", f.name, f.slot, f.running)
		}
	}
}

// TestShardTripRollsBackOnlyItsMembers is the blast-radius bound: half of
// one shard's members wedge, tripping that shard's gate; its healthy
// members are rolled back to slot 1 while every other shard's members
// stay updated on slot 2.
func TestShardTripRollsBackOnlyItsMembers(t *testing.T) {
	fakes := buildFakes(200)
	const shards = 4
	badShard := ShardFor(fakes[0].name, shards)
	inBad := 0
	for _, f := range fakes {
		if ShardFor(f.name, shards) == badShard {
			if inBad%2 == 0 {
				f.wedge = true
			}
			inBad++
		}
	}

	c := NewFleetController(FleetConfig{
		Shards: shards, TargetSlot: 2, Canaries: 1, WaveSize: 0,
		GlobalMaxFailureFrac: 2, // isolate the per-shard gate
	}, asMembers(fakes))
	rep := c.Rollout([]byte{1})

	if rep.TrippedShards != 1 {
		t.Fatalf("tripped shards = %d, want 1 (report %+v)", rep.TrippedShards, rep)
	}
	if rep.PerShard[badShard].Updated != 0 {
		t.Errorf("tripped shard still reports %d updated", rep.PerShard[badShard].Updated)
	}
	if rep.BadEnd != 0 {
		t.Errorf("bad end = %d, want 0", rep.BadEnd)
	}
	for _, f := range fakes {
		s := ShardFor(f.name, shards)
		switch {
		case s == badShard && f.slot != 1:
			t.Errorf("%s (tripped shard %d): slot=%d, want rolled back to 1", f.name, s, f.slot)
		case s != badShard && f.slot != 2:
			t.Errorf("%s (healthy shard %d): slot=%d, want 2", f.name, s, f.slot)
		}
		if !f.running {
			t.Errorf("%s left not running", f.name)
		}
	}
}

// TestGlobalBreakerAborts: half the shards fail outright but stay under
// their (loosened) per-shard gate; the cross-shard breaker halts the
// remaining waves after the canary round.
func TestGlobalBreakerAborts(t *testing.T) {
	fakes := buildFakes(400)
	const shards = 8
	for _, f := range fakes {
		if ShardFor(f.name, shards)%2 == 0 {
			f.pushErr = errors.New("region down")
		}
	}
	c := NewFleetController(FleetConfig{
		Shards: shards, TargetSlot: 2, Canaries: 2, WaveSize: 4,
		MaxFailureFrac:       2,   // per-shard gate disabled
		GlobalMaxFailureFrac: 0.3, // breaker trips at 50% cross-shard failure
	}, asMembers(fakes))
	rep := c.Rollout([]byte{1})

	if !rep.Aborted {
		t.Fatalf("breaker did not abort: %+v", rep)
	}
	if rep.Waves != 1 {
		t.Errorf("waves = %d, want 1 (canary round only)", rep.Waves)
	}
	if want := 2 * shards; rep.Attempted != want {
		t.Errorf("attempted = %d, want %d canaries", rep.Attempted, want)
	}
	if rep.TrippedShards != 0 {
		t.Errorf("per-shard gates tripped (%d) despite disabled threshold", rep.TrippedShards)
	}
	// Members beyond the canaries were never pushed.
	pushed := 0
	for _, f := range fakes {
		if f.pushes > 0 {
			pushed++
		}
	}
	if pushed != 2*shards {
		t.Errorf("%d members pushed, want %d", pushed, 2*shards)
	}
}

// TestBakeCatchesLateWedge: a member healthy at push time hangs before
// the next wave; the inter-wave bake reclassifies it as failed and
// remediates it back to its previous slot.
func TestBakeCatchesLateWedge(t *testing.T) {
	fakes := buildFakes(12)
	fakes[3].late = true
	c := NewFleetController(FleetConfig{
		Shards: 1, TargetSlot: 2, Canaries: 2, WaveSize: 4, Bake: true,
		MaxFailureFrac: 0.5,
	}, asMembers(fakes))
	rep := c.Rollout([]byte{1})

	if rep.BakeFailures != 1 {
		t.Fatalf("bake failures = %d, want 1 (report %+v)", rep.BakeFailures, rep)
	}
	if rep.BlastRadius != 1 || rep.Remediated != 1 || rep.BadEnd != 0 {
		t.Errorf("blast=%d remediated=%d badEnd=%d", rep.BlastRadius, rep.Remediated, rep.BadEnd)
	}
	if fakes[3].slot != 1 || !fakes[3].running {
		t.Errorf("late-wedged member: slot=%d running=%v, want restored to 1", fakes[3].slot, fakes[3].running)
	}
	if rep.Updated != 11 {
		t.Errorf("updated = %d, want 11", rep.Updated)
	}
}

// TestBakeCatchesAdjacentLateWedges: two neighbours of one wave hang before
// the next. The bake removes the first from the updated set, which shifts
// the second down a slot — a bake set that aliased the updated set would
// step over it.
func TestBakeCatchesAdjacentLateWedges(t *testing.T) {
	fakes := buildFakes(12)
	fakes[3].late, fakes[4].late = true, true // wave 1 pushes cables 2..5
	c := NewFleetController(FleetConfig{
		Shards: 1, TargetSlot: 2, Canaries: 2, WaveSize: 4, Bake: true,
		MaxFailureFrac: 0.5,
	}, asMembers(fakes))
	rep := c.Rollout([]byte{1})

	if rep.BakeFailures != 2 {
		t.Fatalf("bake failures = %d, want 2 (report %+v)", rep.BakeFailures, rep)
	}
	if rep.BlastRadius != 2 || rep.Remediated != 2 || rep.BadEnd != 0 {
		t.Errorf("blast=%d remediated=%d badEnd=%d", rep.BlastRadius, rep.Remediated, rep.BadEnd)
	}
	for _, i := range []int{3, 4} {
		if fakes[i].slot != 1 || !fakes[i].running {
			t.Errorf("late-wedged %s: slot=%d running=%v, want restored to 1", fakes[i].name, fakes[i].slot, fakes[i].running)
		}
	}
	if rep.Updated != 10 || len(c.shards[0].updated) != 10 {
		t.Errorf("updated = %d (set of %d), want 12 less exactly the 2 wedged", rep.Updated, len(c.shards[0].updated))
	}
	for _, i := range c.shards[0].updated {
		if m := c.shards[0].members[i]; m == FleetMember(fakes[3]) || m == FleetMember(fakes[4]) {
			t.Errorf("%s still in the updated set", m.Name())
		}
	}
}

// TestWedgeRemediation: a member that wedges on the target image (blast
// radius) is individually rebooted back even when the shard gate holds.
func TestWedgeRemediation(t *testing.T) {
	fakes := buildFakes(20)
	fakes[7].wedge = true
	c := NewFleetController(FleetConfig{
		Shards: 2, TargetSlot: 2, Canaries: 1, WaveSize: 0,
		MaxFailureFrac: 0.9,
	}, asMembers(fakes))
	rep := c.Rollout([]byte{1})

	if rep.BlastRadius != 1 || rep.Remediated != 1 || rep.BadEnd != 0 {
		t.Fatalf("blast=%d remediated=%d badEnd=%d", rep.BlastRadius, rep.Remediated, rep.BadEnd)
	}
	if rep.TrippedShards != 0 {
		t.Errorf("shard tripped under lenient gate")
	}
	if fakes[7].slot != 1 || !fakes[7].running {
		t.Errorf("wedged member: slot=%d running=%v", fakes[7].slot, fakes[7].running)
	}
}

func TestAggregateTelemetryHierarchy(t *testing.T) {
	fakes := buildFakes(64)
	c := NewFleetController(FleetConfig{Shards: 4, TargetSlot: 2}, asMembers(fakes))
	c.Rollout([]byte{1})

	snap, stats := c.AggregateTelemetry()
	if stats.MemberSnaps != 64 {
		t.Errorf("member snaps folded = %d, want 64", stats.MemberSnaps)
	}
	if stats.ShardFolds != 4 {
		t.Errorf("global merge touched %d folds, want exactly the shard count 4", stats.ShardFolds)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Name != "pushes" {
		t.Fatalf("counters = %+v", snap.Counters)
	}
	var want uint64
	for _, f := range fakes {
		want += uint64(f.pushes)
	}
	if snap.Counters[0].Value != want {
		t.Errorf("aggregated pushes = %d, want %d", snap.Counters[0].Value, want)
	}
}

// --- SimMember integration: chaos, invariants, determinism ---

var simKey = []byte("fleet-ota-key")

func simImage(t testing.TB, version uint32) []byte {
	t.Helper()
	bs := &bitstream.Bitstream{
		AppName: "nat", AppVersion: version, Device: "MPF200T",
		ClockKHz: 156_250, DatapathBits: 64,
		Payload: make([]byte, 256),
	}
	enc, err := bs.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return bitstream.Sign(enc, simKey)
}

func chaosFleet(t testing.TB, n int, seed int64) ([]FleetMember, []byte) {
	t.Helper()
	parent := faults.New(seed, faults.Rates{ConnDrop: 0.02, Stall: 0.02})
	cfg := SimMemberConfig{
		Key:           simKey,
		Retry:         mgmt.RetryPolicy{MaxAttempts: 4, BaseBackoff: 1 << 20, MaxBackoff: 1 << 23},
		TamperProb:    0.01,
		PowerCutProb:  0.01,
		WedgeProb:     0.005,
		LateWedgeProb: 0.005,
	}
	old := simImage(t, 3)
	return BuildSimFleet(n, parent, cfg, 3, 1, old), simImage(t, 9)
}

// slowestPush is the WaveCost the sim tests use: a wave's members push in
// parallel on the wire, so it costs its slowest member.
func slowestPush(_ int, batch []FleetMember) uint64 {
	var maxNs uint64
	for _, m := range batch {
		maxNs = max(maxNs, m.(*SimMember).LastOpCostNs())
	}
	return maxNs
}

// TestSimRolloutNoBadImages is the headline invariant under chaos: after
// a full rollout with transport faults, tampered images, power cuts and
// wedges, no member is left running an image that fails verification and
// none is left hung on the target.
func TestSimRolloutNoBadImages(t *testing.T) {
	members, img := chaosFleet(t, 2000, 42)
	c := NewFleetController(FleetConfig{
		Shards: 8, TargetSlot: 2, Canaries: 4, WaveSize: 32, Bake: true,
		MaxFailureFrac: 0.5, GlobalMaxFailureFrac: 0.8,
	}, members)
	rep := c.Rollout(img)

	if rep.Aborted || rep.TrippedShards != 0 {
		t.Fatalf("low-chaos rollout tripped/aborted: %+v", rep)
	}
	if rep.BadEnd != 0 {
		t.Fatalf("bad end = %d, want 0", rep.BadEnd)
	}
	if rep.Attempted != 2000 {
		t.Errorf("attempted = %d, want 2000", rep.Attempted)
	}
	onTarget := 0
	for _, m := range members {
		sm := m.(*SimMember)
		if sm.OnBadImage() {
			t.Errorf("%s ends on an unverifiable image (slot %d)", sm.Name(), sm.ActiveSlot())
		}
		if sm.Wedged() {
			t.Errorf("%s left wedged", sm.Name())
		}
		if v, _ := sm.ActiveVersion(); sm.ActiveSlot() == 2 {
			onTarget++
			if v != 9 {
				t.Errorf("%s counted updated but runs v%d, not the pushed v9", sm.Name(), v)
			}
		}
	}
	if onTarget != rep.Updated {
		t.Errorf("%d members run from the target slot, controller reports %d updated", onTarget, rep.Updated)
	}
	if rep.CostNs == 0 && c.cfg.WaveCost != nil {
		t.Error("cost accounting lost")
	}
}

// TestSimRolloutDeterministic: the whole fleet outcome — report, member
// retry counters, aggregated telemetry — is a pure function of the seed,
// byte-identical across runs despite 8 concurrent shard workers.
func TestSimRolloutDeterministic(t *testing.T) {
	run := func() ([]byte, []byte) {
		members, img := chaosFleet(t, 1000, 7)
		c := NewFleetController(FleetConfig{
			Shards: 8, TargetSlot: 2, Canaries: 4, WaveSize: 32, Bake: true,
			MaxFailureFrac: 0.5, GlobalMaxFailureFrac: 0.8,
			WaveCost: slowestPush,
		}, members)
		rep := c.Rollout(img)
		repJSON, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		snap, _ := c.AggregateTelemetry()
		snapJSON, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		return repJSON, snapJSON
	}
	rep1, snap1 := run()
	rep2, snap2 := run()
	if !reflect.DeepEqual(rep1, rep2) {
		t.Errorf("fleet report differs across identical runs:\n%s\n%s", rep1, rep2)
	}
	if !reflect.DeepEqual(snap1, snap2) {
		t.Error("aggregated telemetry differs across identical runs")
	}
}

// TestRolloutIndependentOfInputOrder: the controller sorts its members by
// name, so TestSimRolloutDeterministic's fleet passed in index order (the
// order BuildSimFleet returns, already sorted), reversed and shuffled gives byte-identical reports and aggregated telemetry.
func TestRolloutIndependentOfInputOrder(t *testing.T) {
	orders := []struct {
		name    string
		reorder func([]FleetMember)
	}{
		{"index", func([]FleetMember) {}},
		{"reversed", slices.Reverse[[]FleetMember]},
		{"shuffled", func(ms []FleetMember) {
			rand.New(rand.NewSource(3)).Shuffle(len(ms), func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
		}},
	}
	var wantRep, wantSnap []byte
	for _, o := range orders {
		members, img := chaosFleet(t, 1000, 7)
		o.reorder(members)
		c := NewFleetController(FleetConfig{
			Shards: 8, TargetSlot: 2, Canaries: 4, WaveSize: 32, Bake: true,
			MaxFailureFrac: 0.5, GlobalMaxFailureFrac: 0.8,
			WaveCost: slowestPush,
		}, members)
		rep, err := json.Marshal(c.Rollout(img))
		if err != nil {
			t.Fatal(err)
		}
		agg, _ := c.AggregateTelemetry()
		snap, err := json.Marshal(agg)
		if err != nil {
			t.Fatal(err)
		}
		if wantRep == nil {
			wantRep, wantSnap = rep, snap
			continue
		}
		if !bytes.Equal(rep, wantRep) {
			t.Errorf("%s input order: report differs from index order's:\n%s\n%s", o.name, rep, wantRep)
		}
		if !bytes.Equal(snap, wantSnap) {
			t.Errorf("%s input order: aggregated telemetry differs from index order's", o.name)
		}
	}
}

// TestNewFleetControllerAllocs: the constructor counts each shard's
// members before it fills the shard, so its allocation count is the same
// at 1 000 and 4 000 members, sorted input or not.
func TestNewFleetControllerAllocs(t *testing.T) {
	allocs := func(n int, reversed bool) float64 {
		members, _ := chaosFleet(t, n, 5)
		if reversed {
			slices.Reverse(members)
		}
		return testing.AllocsPerRun(5, func() {
			NewFleetController(FleetConfig{Shards: 8, TargetSlot: 2}, members)
		})
	}
	for _, reversed := range []bool{false, true} {
		small, large := allocs(1_000, reversed), allocs(4_000, reversed)
		t.Logf("reversed=%v: %v allocations at 1k members, %v at 4k", reversed, small, large)
		if large > small {
			t.Errorf("reversed=%v: NewFleetController makes %v allocations at 4k members, %v at 1k; want no more", reversed, large, small)
		}
	}
}

// TestNewFleetControllerRejectsDuplicateNames: names key the shard hash
// and the report, so two members under one name panic, naming it.
func TestNewFleetControllerRejectsDuplicateNames(t *testing.T) {
	fakes := buildFakes(5)
	fakes[3].name = fakes[1].name
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `"cable-0001"`) {
			t.Errorf("recovered %q, want a panic naming cable-0001", msg)
		}
	}()
	NewFleetController(FleetConfig{Shards: 2}, asMembers(fakes))
}

// TestSimPushBackoffDeterministic pins satellite 4's re-push path: the
// same derived lane replays the same retry schedule (attempt counts and
// accumulated backoff cost), because RetryPolicy.Backoff's jitter is a
// pure function of (request id, attempt).
func TestSimPushBackoffDeterministic(t *testing.T) {
	img := simImage(t, 9)
	mk := func() *SimMember {
		parent := faults.New(99, faults.Rates{ConnDrop: 0.4, Stall: 0.3})
		return NewSimMember("sim-x", parent.Derive(5), SimMemberConfig{
			Key:   simKey,
			Retry: mgmt.RetryPolicy{MaxAttempts: 6, BaseBackoff: 1 << 20, MaxBackoff: 1 << 24},
		}, 3, 1, simImage(t, 3))
	}
	a, b := mk(), mk()
	for i := 0; i < 20; i++ {
		errA := a.Push(img, 2, true)
		errB := b.Push(img, 2, true)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("push %d outcome diverged: %v vs %v", i, errA, errB)
		}
	}
	if a.retries != b.retries || a.pushes != b.pushes {
		t.Fatalf("retry schedule diverged: %d/%d attempts vs %d/%d",
			a.retries, a.pushes, b.retries, b.pushes)
	}
	if a.costNs != b.costNs {
		t.Fatalf("backoff cost diverged: %d vs %d", a.costNs, b.costNs)
	}
	if a.retries == 0 {
		t.Fatal("test exercised no retries — raise the fault rates")
	}
}

// --- ClientMember: the controller over real mgmt agents ---

// agentFleet builds n NAT modules running v1 from slot 1, each behind an
// in-process mgmt.Agent transport that drains the module's own simulator
// after every request (so reboots complete within it), and wraps each
// module's client in a ClientMember.
func agentFleet(t *testing.T, n int) ([]FleetMember, []*core.Module) {
	t.Helper()
	members := make([]FleetMember, n)
	mods := make([]*core.Module, n)
	for i := range members {
		name := fmt.Sprintf("%c-port", 'a'+i)
		sim := netsim.New(int64(i + 1))
		mod, _, err := build.Module(sim, build.ModuleSpec{
			Name: name, DeviceID: uint32(i + 1), Shell: hls.TwoWayCore, App: "nat",
		})
		if err != nil {
			t.Fatal(err)
		}
		agent := mgmt.NewAgent(mod)
		c := mgmt.NewClient(mgmt.TransportFunc(func(req []byte) ([]byte, error) {
			resp := agent.Handle(req)
			sim.Run()
			return resp, nil
		}))
		members[i], mods[i] = NewClientMember(name, c), mod
	}
	return members, mods
}

// agentImage is the signed v2 of the NAT image agentFleet runs.
func agentImage(t *testing.T) []byte {
	t.Helper()
	app, err := apps.NewRegistry().New("nat")
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Configure(nil); err != nil {
		t.Fatal(err)
	}
	prog := app.Program()
	prog.Version++
	d, err := hls.Compile(prog, hls.Options{
		Device: fpga.MPF200T, Shell: hls.TwoWayCore,
		ClockHz: build.BaseClockHz, DatapathBits: build.BaseDatapathBits,
	})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := d.Bitstream.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return bitstream.Sign(enc, build.DefaultAuthKey)
}

// onTarget is the default health check with one member singled out as
// unhealthy.
func onTarget(bad string) func(FleetMember) error {
	return func(m FleetMember) error {
		if m.Name() == bad {
			return errors.New("loss spike")
		}
		st, err := m.Stats()
		if err != nil {
			return err
		}
		if !st.Running || st.ActiveSlot != 2 {
			return fmt.Errorf("running=%v slot=%d", st.Running, st.ActiveSlot)
		}
		return nil
	}
}

func TestClientMemberRolloutAllHealthy(t *testing.T) {
	members, mods := agentFleet(t, 5)
	c := NewFleetController(FleetConfig{TargetSlot: 2, Canaries: 2, WaveSize: 2}, members)
	rep := c.Rollout(agentImage(t))

	if rep.TrippedShards != 0 || rep.Updated != 5 || rep.Failed != 0 {
		t.Fatalf("healthy rollout: %+v", rep)
	}
	if rep.Waves != 3 {
		t.Errorf("waves = %d, want 3 (2 canaries, then waves of 2)", rep.Waves)
	}
	if ms := c.shards[0].members; ms[0].Name() != "a-port" || ms[1].Name() != "b-port" {
		t.Errorf("canaries = %s, %s; want the first two names", ms[0].Name(), ms[1].Name())
	}
	for _, m := range mods {
		if !m.Running() || m.ActiveSlot() != 2 {
			t.Errorf("%s: running=%v slot=%d", m.Name(), m.Running(), m.ActiveSlot())
		}
	}
}

// An unhealthy canary trips the gate after round 0: only the canary was
// attempted, it is restored, and the rest never see the image.
func TestClientMemberRolloutUnhealthyCanaryTrips(t *testing.T) {
	members, mods := agentFleet(t, 4)
	rep := NewFleetController(FleetConfig{
		TargetSlot: 2, Canaries: 1,
		HealthCheck: func(FleetMember) error { return errors.New("loss spike") },
	}, members).Rollout(agentImage(t))

	if rep.TrippedShards != 1 || rep.Waves != 1 {
		t.Fatalf("tripped=%d waves=%d, want the gate tripped after round 0", rep.TrippedShards, rep.Waves)
	}
	if rep.Attempted != 1 || len(rep.Errors) != 1 || rep.Errors[0].Name != "a-port" {
		t.Errorf("attempted=%d errors=%+v, want only the canary", rep.Attempted, rep.Errors)
	}
	if rep.Remediated != 1 || rep.BadEnd != 0 {
		t.Errorf("remediated=%d badEnd=%d", rep.Remediated, rep.BadEnd)
	}
	for i, m := range mods {
		if !m.Running() || m.ActiveSlot() != 1 {
			t.Errorf("%s: running=%v slot=%d, want slot 1", m.Name(), m.Running(), m.ActiveSlot())
		}
		if _, _, err := m.Flash.LoadBitstream(2); (err == nil) != (i == 0) {
			t.Errorf("%s: image in slot 2 = %v, want only the canary pushed", m.Name(), err == nil)
		}
	}
}

// Below the gate the rollout goes on, and the one failed member — booted
// onto the target but unhealthy — is restored to its previous slot.
func TestClientMemberToleratedFailureRemediated(t *testing.T) {
	members, mods := agentFleet(t, 5)
	rep := NewFleetController(FleetConfig{
		TargetSlot: 2, Canaries: 1, WaveSize: 2, MaxFailureFrac: 0.5,
		HealthCheck: onTarget("c-port"),
	}, members).Rollout(agentImage(t))

	if rep.TrippedShards != 0 || rep.Updated != 4 || rep.Failed != 1 {
		t.Fatalf("tripped=%d updated=%d failed=%d", rep.TrippedShards, rep.Updated, rep.Failed)
	}
	if rep.Remediated != 1 || rep.BadEnd != 0 {
		t.Errorf("remediated=%d badEnd=%d", rep.Remediated, rep.BadEnd)
	}
	for _, m := range mods {
		want := 2
		if m.Name() == "c-port" {
			want = 1
		}
		if !m.Running() || m.ActiveSlot() != want {
			t.Errorf("%s: running=%v slot=%d, want %d", m.Name(), m.Running(), m.ActiveSlot(), want)
		}
	}
}

func TestClientMemberRolloutEmpty(t *testing.T) {
	rep := NewFleetController(FleetConfig{TargetSlot: 2}, nil).Rollout([]byte{1})
	if want := (FleetReport{Shards: 1, PerShard: []ShardReport{{}}}); !reflect.DeepEqual(rep, want) {
		t.Errorf("empty rollout = %+v, want %+v", rep, want)
	}
}
