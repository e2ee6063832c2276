package paper

// Golden compatibility tests for the internal/exp port.
//
// The files under testdata/ are byte captures of `flexsfp-bench -json`
// taken BEFORE the experiment harness was ported from the root package
// into internal/exp/paper:
//
//	golden_default.json  flexsfp-bench -json                  (seed 1, trials 1)
//	golden_trials.json   flexsfp-bench -json -seed 7 -trials 3 -run power,linerate,reliability
//	golden_faults.json   flexsfp-bench -json -seed 5 -trials 2 -run faults -fault-rate 0.5
//
// Each test replays the same run through the registry and asserts the
// ported experiments produce semantically identical JSON — compared
// field by field on the legacy `metrics` payload (the result struct),
// so envelope additions (params echo, summary metrics) and timing
// fields (wall_ms) are allowed, but any drift in experiment output is
// not.
//
// Re-captured in PR 25, value by value (never whole files), when each
// experiment was left with one execution path:
//
//   - linerate IMIX GoodputGbps (golden_default.json, and its summary in
//     golden_trials.json): the legacy Shards=0 path was deleted, so the
//     sweep always runs on netsim.Sharded, whose IMIX size draws come
//     from the case's partition stream (Sharded.Stream) rather than a
//     private simulator's RNG. The fixed-size points do not draw and
//     did not move.
//   - faults rate-0.25 RecoveryMs mean/stddev/min (golden_faults.json):
//     the rollout moved from mgmt.Fleet.PushCanary to
//     daemon.FleetController, which issues a different sequence of
//     mgmt calls (health-checks a push whose connection dropped, restores
//     a failed member on its own), so the injectors' draws land on
//     different requests.
//
// Re-captured once more, value by value, as one declared seed change
// when every stream moved onto runner.Source (SplitMix64, the mixer
// behind runner.TrialSeed) and off math/rand's seeded source. No model
// code changed; the same seeds now yield different draws:
//
//   - golden_default.json: power's three StddevW (measurement noise),
//     linerate IMIX GoodputGbps 9.486576 → 9.097696 (size draws), gap
//     host-cpu P50/P99/Throughput (jitter draws; P99 2346 → 2319 ns) and
//     reliability's failure count, MTTF, p10/p90 and swap costs
//     (failures 3613 → 3618).
//   - golden_trials.json: the linerate IMIX GoodputGbps summary and
//     every reliability summary field.
//   - golden_faults.json: rates 0.25 and 0.5 (injected faults and client
//     retries move between the two; at 0.5 the golden fallback and
//     watchdog trip of one trial no longer happen).
//   - golden_overlay_failover.json (overlay_test.go): the sampled laser
//     lifetimes pick cable 7, not 3, as the victim, which moves its
//     flows, flaps and reroute latencies (mean 38.50 → 21.75 µs);
//     frames_to_withdrawn_post stays 0 and recovered_fraction 1.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"flexsfp/internal/exp"
)

// goldenReport mirrors the flexsfp-bench -json blob shape.
type goldenReport struct {
	Seed        int64 `json:"seed"`
	Trials      int   `json:"trials"`
	Parallel    int   `json:"parallel"`
	Experiments []struct {
		Name    string          `json:"name"`
		Metrics json.RawMessage `json:"metrics"`
	} `json:"experiments"`
}

func loadGolden(t *testing.T, name string) goldenReport {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	var rep goldenReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("parse golden %s: %v", name, err)
	}
	if len(rep.Experiments) == 0 {
		t.Fatalf("golden %s has no experiments", name)
	}
	return rep
}

// replayGolden runs every experiment recorded in the golden capture
// through the registry with the capture's recorded knobs and compares
// the marshalled result struct field by field.
func replayGolden(t *testing.T, file string, ctx exp.RunContext) {
	t.Helper()
	rep := loadGolden(t, file)
	if rep.Seed != ctx.Seed || rep.Trials != ctx.Trials {
		t.Fatalf("golden %s recorded seed=%d trials=%d, replaying with seed=%d trials=%d",
			file, rep.Seed, rep.Trials, ctx.Seed, ctx.Trials)
	}
	for _, ge := range rep.Experiments {
		ge := ge
		t.Run(ge.Name, func(t *testing.T) {
			t.Parallel()
			sel, err := exp.Default.Select(ge.Name, true)
			if err != nil {
				t.Fatalf("experiment %q from golden capture: %v", ge.Name, err)
			}
			res, err := sel[0].Run(ctx)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			got, err := json.Marshal(res.Envelope().Detail)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var want, have any
			if err := json.Unmarshal(ge.Metrics, &want); err != nil {
				t.Fatalf("unmarshal golden metrics: %v", err)
			}
			if err := json.Unmarshal(got, &have); err != nil {
				t.Fatalf("unmarshal replay metrics: %v", err)
			}
			if !reflect.DeepEqual(want, have) {
				t.Errorf("ported %s output drifted from pre-refactor capture\ngolden: %s\n   got: %s",
					ge.Name, ge.Metrics, got)
			}
		})
	}
}

// TestGoldenDefaultRun pins the default single-trial run of the full
// visible suite (12 experiments) to the pre-port capture.
func TestGoldenDefaultRun(t *testing.T) {
	replayGolden(t, "golden_default.json", exp.RunContext{Seed: 1, Trials: 1, FaultRate: 0.2})
}

// TestGoldenMultiTrialRun pins the multi-seed aggregation paths (the
// former *Trials entry points) for the three stochastic experiments.
func TestGoldenMultiTrialRun(t *testing.T) {
	replayGolden(t, "golden_trials.json", exp.RunContext{Seed: 7, Trials: 3, FaultRate: 0.2})
}

// TestGoldenFaultSweep pins the opt-in chaos sweep, including the
// FaultRate knob that used to be a bespoke -fault-rate plumbing path.
func TestGoldenFaultSweep(t *testing.T) {
	replayGolden(t, "golden_faults.json", exp.RunContext{Seed: 5, Trials: 2, FaultRate: 0.5})
}
