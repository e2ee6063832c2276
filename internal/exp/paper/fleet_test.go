package paper

import (
	"bytes"
	"encoding/json"
	"testing"

	"flexsfp/internal/exp"
)

// fleetTestCtx keeps the test fleet small enough for tier-1 runs while
// still spanning many shards and waves.
func fleetTestCtx() exp.RunContext {
	return exp.RunContext{
		Seed: 11, Trials: 2, FaultRate: 0.3,
		FleetSize: 1500, FleetShards: 8,
	}
}

func fleetEnvelopeJSON(t *testing.T, ctx exp.RunContext) []byte {
	t.Helper()
	res, err := runFleetOTA(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res.Envelope())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFleetOTAInvariants drives the sharded controller through the chaos
// sweep and checks the headline robustness claims: every module is
// attempted, none ends on a bad image, and telemetry aggregates through
// exactly fleet-size member snapshots and shard-count folds.
func TestFleetOTAInvariants(t *testing.T) {
	ctx := fleetTestCtx()
	r, err := fleetSweep(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r.Modules != 1500 || r.Shards != 8 {
		t.Fatalf("modules=%d shards=%d", r.Modules, r.Shards)
	}
	if r.BadEnd != 0 {
		t.Fatalf("modules_bad_end = %d, want 0", r.BadEnd)
	}
	if r.StaleEnd != 0 {
		t.Fatalf("modules_stale_version = %d, want 0", r.StaleEnd)
	}
	if r.MemberSnaps != r.Modules {
		t.Errorf("shard layer folded %d member snaps, want %d", r.MemberSnaps, r.Modules)
	}
	if r.ShardFolds != r.Shards {
		t.Errorf("global merge touched %d folds, want exactly %d shards", r.ShardFolds, r.Shards)
	}
	if len(r.Points) != len(fleetRateFracs) {
		t.Fatalf("sweep points = %d", len(r.Points))
	}
	zero := r.Points[0]
	if zero.UpdatedFrac.Mean != 1 || zero.BlastRadius.Mean != 0 || zero.Retries.Mean != 0 {
		t.Errorf("fault-free point not clean: updated=%v blast=%v retries=%v",
			zero.UpdatedFrac.Mean, zero.BlastRadius.Mean, zero.Retries.Mean)
	}
	max := r.Points[len(r.Points)-1]
	if max.InjectedFaults.Mean == 0 {
		t.Error("max-rate point injected no faults — the sweep is not exercising chaos")
	}
	if max.RolloutMs.Mean <= zero.RolloutMs.Mean {
		t.Errorf("rollout under chaos (%v ms) not slower than fault-free (%v ms)",
			max.RolloutMs.Mean, zero.RolloutMs.Mean)
	}
}

// TestFleetOTADeterministic pins the acceptance criterion: the whole
// envelope — params echo, summary metrics, every per-point CI — is
// byte-identical across runs at a fixed seed, including across worker
// parallelism settings.
func TestFleetOTADeterministic(t *testing.T) {
	ctx := fleetTestCtx()
	a := fleetEnvelopeJSON(t, ctx)
	b := fleetEnvelopeJSON(t, ctx)
	if !bytes.Equal(a, b) {
		t.Fatalf("fleet_ota envelope differs across identical runs:\n%s\n%s", a, b)
	}
	ctx.Parallelism = 2
	c := fleetEnvelopeJSON(t, ctx)
	ctx.Parallelism = 1
	d := fleetEnvelopeJSON(t, ctx)
	// Params echoes parallelism, so compare the detail payloads.
	var ec, ed exp.Envelope
	if err := json.Unmarshal(c, &ec); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(d, &ed); err != nil {
		t.Fatal(err)
	}
	jc, _ := json.Marshal(ec.Detail)
	jd, _ := json.Marshal(ed.Detail)
	if !bytes.Equal(jc, jd) {
		t.Fatalf("fleet_ota detail differs across -parallel settings:\n%s\n%s", jc, jd)
	}
}

// TestFleetOTARegistered checks the experiment is registered hidden:
// absent from wildcard selection, present by exact name.
func TestFleetOTARegistered(t *testing.T) {
	all, err := exp.Default.Select("all", false)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range all {
		if e.Name() == "fleet_ota" {
			t.Fatal("fleet_ota joined wildcard selection without opt-in")
		}
	}
	byName, err := exp.Default.Select("fleet_ota", false)
	if err != nil || len(byName) != 1 {
		t.Fatalf("exact-name selection: %v (%d matches)", err, len(byName))
	}
}
