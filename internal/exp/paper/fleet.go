package paper

import (
	"fmt"

	"flexsfp/internal/bitstream"
	"flexsfp/internal/build"
	"flexsfp/internal/daemon"
	"flexsfp/internal/exp"
	"flexsfp/internal/faults"
	"flexsfp/internal/mgmt"
	"flexsfp/internal/netsim"
	"flexsfp/internal/runner"
)

// ---------------------------------------------------------------------------
// fleet_ota: the sharded fleet controller at deployment scale (§2.1's
// fleet-wide feature rollout meeting §4.2's failure model). 100k+
// lightweight in-memory members (daemon.SimMember — no TCP, no netsim
// event loop) are partitioned over worker shards and driven through a
// full OTA wave under chaos: transport drops/stalls, images tampered in
// flight, power cuts mid-write, and apps that wedge immediately or only
// after the first health check. Reports rollout latency (max per-shard
// simulated cost), blast radius, rollback/remediation counts, and the
// hierarchical telemetry-aggregation shape (per-member snapshots folded
// per shard; the global merge touches only the per-shard folds).
//
// Determinism: each member's injector derives from the trial seed and
// the member's lane via SplitMix64, and the controller's wave barriers
// make every gate decision on complete per-round information — so the
// JSON envelope is byte-identical for a fixed seed at any GOMAXPROCS.

// Fleet/rollout shape at default knobs.
const (
	fleetDefaultModules = 100_000
	fleetDefaultShards  = 64
	fleetTargetSlot     = 2
	fleetStartSlot      = 1
	fleetCanaries       = 4   // per shard
	fleetWaveSize       = 256 // per shard per wave
	fleetShardGate      = 0.5 // per-shard failure fraction gate
	fleetGlobalGate     = 0.8 // cross-shard circuit breaker
	fleetRetryAttempts  = 4
	fleetOldVersion     = 3 // AppVersion every member starts on
	fleetNewVersion     = 9 // AppVersion the rollout pushes
)

// Per-event probabilities at fault-rate multiplier 1.0 (the bench's
// -fault-rate scales these; its default 0.2 is the nominal chaos level).
var fleetBaseRates = faults.Rates{ConnDrop: 0.10, Stall: 0.10}

const (
	fleetTamperProb    = 0.025 // landed push stores a tampered image
	fleetPowerCutProb  = 0.025 // power fails mid-write after the ack
	fleetWedgeProb     = 0.010 // target boots but hangs immediately
	fleetLateWedgeProb = 0.010 // hangs only after the first health check
)

// fleetRateFracs are the sweep points as fractions of the max rate.
var fleetRateFracs = []float64{0, 0.5, 1.0}

// FleetOTAPoint aggregates one fault-rate setting across trials.
type FleetOTAPoint struct {
	Rate float64 `json:"rate"`

	UpdatedFrac    runner.Summary `json:"updated_frac"`    // members healthy on the new image
	RolloutMs      runner.Summary `json:"rollout_ms"`      // max per-shard simulated cost
	Waves          runner.Summary `json:"waves"`           // fleet-wide wave rounds
	BlastRadius    runner.Summary `json:"blast_radius"`    // members ever unhealthy on the target
	Remediated     runner.Summary `json:"remediated"`      // individually restored members
	RolledBack     runner.Summary `json:"rolled_back"`     // members reverted by shard trips
	TrippedShards  runner.Summary `json:"tripped_shards"`  // shards whose gate fired
	Aborts         runner.Summary `json:"aborts"`          // circuit-breaker aborts (0/1)
	BakeFailures   runner.Summary `json:"bake_failures"`   // late wedges caught by the bake
	Retries        runner.Summary `json:"retries"`         // mgmt re-push attempts fleet-wide
	InjectedFaults runner.Summary `json:"injected_faults"` // faults the injectors fired
}

// FleetOTAResult is the fleet_ota detail payload.
type FleetOTAResult struct {
	Trials  int     `json:"trials"`
	Modules int     `json:"modules"`
	Shards  int     `json:"shards"`
	MaxRate float64 `json:"max_rate"`

	// BadEnd is the invariant counter summed over every trial and sweep
	// point: members left on an unverifiable image or wedged on the
	// target. Bounded blast radius means this is 0 (asserted by the
	// fleet-smoke CI target; no omitempty so the zero is visible).
	BadEnd int `json:"modules_bad_end"`

	// StaleEnd is its freshness counterpart, summed the same way: members
	// running from the target slot — what the controller counts updated —
	// whose image is not the pushed version (a re-signed downgrade that
	// booted). Also 0, also asserted by fleet-smoke.
	StaleEnd int `json:"modules_stale_version"`

	// MemberSnaps/ShardFolds echo the telemetry-aggregation shape at the
	// max-rate point of trial 0: the shard layer folded MemberSnaps
	// per-member snapshots, the global merge touched only ShardFolds
	// folds — aggregation cost at the root scales with shards, not fleet.
	MemberSnaps int `json:"telemetry_member_snaps"`
	ShardFolds  int `json:"telemetry_shard_folds"`

	Points []FleetOTAPoint `json:"points"`
}

// fleetPoint is one trial's raw metrics at one fault rate.
type fleetPoint struct {
	updatedFrac, rolloutMs, waves float64
	blast, remediated, rolledBack float64
	tripped, aborts, bakeFails    float64
	retries, injected             float64
	badEnd, staleEnd              float64
	memberSnaps, shardFolds       float64
}

// fleetImages are the signed old/new images shared by every member
// (deterministic, built once per experiment run).
type fleetImages struct {
	old, new []byte
}

func buildFleetImages() (*fleetImages, error) {
	mk := func(version uint32) ([]byte, error) {
		bs := &bitstream.Bitstream{
			AppName: "nat", AppVersion: version, Device: "MPF200T",
			ClockKHz: 156_250, DatapathBits: 64,
			Payload: make([]byte, 256),
		}
		enc, err := bs.Encode()
		if err != nil {
			return nil, err
		}
		return bitstream.Sign(enc, build.DefaultAuthKey), nil
	}
	old, err := mk(fleetOldVersion)
	if err != nil {
		return nil, err
	}
	new_, err := mk(fleetNewVersion)
	if err != nil {
		return nil, err
	}
	return &fleetImages{old: old, new: new_}, nil
}

// fleetBakeCostNs is the simulated inter-wave bake dwell added to each
// wave's cost.
const fleetBakeCostNs = uint64(10 * netsim.Millisecond)

// fleetOTATrial runs one full sharded rollout at one fault rate.
func fleetOTATrial(img *fleetImages, trialSeed int64, rateIdx int, rate float64, modules, shards int) (fleetPoint, error) {
	parent := faults.New(runner.TrialSeed(trialSeed, 3000+rateIdx), fleetBaseRates.Scaled(rate))
	memberCfg := daemon.SimMemberConfig{
		Key: build.DefaultAuthKey,
		Retry: mgmt.RetryPolicy{
			MaxAttempts: fleetRetryAttempts,
			BaseBackoff: 1 << 20, // ~1 ms, doubling
			MaxBackoff:  1 << 23,
		},
		TamperProb:    fleetTamperProb * rate,
		PowerCutProb:  fleetPowerCutProb * rate,
		WedgeProb:     fleetWedgeProb * rate,
		LateWedgeProb: fleetLateWedgeProb * rate,
	}
	members := daemon.BuildSimFleet(modules, parent, memberCfg, 3, fleetStartSlot, img.old)

	c := daemon.NewFleetController(daemon.FleetConfig{
		Shards: shards, TargetSlot: fleetTargetSlot,
		Canaries: fleetCanaries, WaveSize: fleetWaveSize, Bake: true,
		MaxFailureFrac: fleetShardGate, GlobalMaxFailureFrac: fleetGlobalGate,
		WaveCost: func(_ int, batch []daemon.FleetMember) uint64 {
			// Members of a wave push in parallel on the wire: the wave
			// costs its slowest member plus the health-bake dwell.
			var maxNs uint64
			for _, m := range batch {
				if ns := m.(*daemon.SimMember).LastOpCostNs(); ns > maxNs {
					maxNs = ns
				}
			}
			return maxNs + fleetBakeCostNs
		},
	}, members)

	rep := c.Rollout(img.new)
	snap, foldStats := c.AggregateTelemetry()

	var p fleetPoint
	p.updatedFrac = float64(rep.Updated) / float64(rep.Modules)
	p.rolloutMs = float64(rep.CostNs) / float64(netsim.Millisecond)
	p.waves = float64(rep.Waves)
	p.blast = float64(rep.BlastRadius)
	p.remediated = float64(rep.Remediated)
	p.rolledBack = float64(rep.RolledBack)
	p.tripped = float64(rep.TrippedShards)
	if rep.Aborted {
		p.aborts = 1
	}
	p.bakeFails = float64(rep.BakeFailures)
	p.badEnd = float64(rep.BadEnd)
	p.memberSnaps = float64(foldStats.MemberSnaps)
	p.shardFolds = float64(foldStats.ShardFolds)
	for _, cs := range snap.Counters {
		if cs.Name == "ota_retries" {
			p.retries = float64(cs.Value)
		}
	}
	// The invariant behind "bounded blast radius": nobody ends on an
	// image that fails verification, and nobody is left wedged on the
	// target — and whoever runs from the target slot runs the version that
	// was pushed. Counted here from the slots' bytes (not just trusted
	// from the report) so the smoke gate sees ground truth.
	for _, m := range members {
		sm := m.(*daemon.SimMember)
		version, ok := sm.ActiveVersion()
		if !ok || sm.Wedged() {
			p.badEnd++
		}
		if sm.ActiveSlot() == fleetTargetSlot && version != fleetNewVersion {
			p.staleEnd++
		}
		p.injected += float64(sm.Injector().Stats().Total())
	}
	return p, nil
}

func fleetSweep(ctx exp.RunContext) (FleetOTAResult, error) {
	maxRate := ctx.FaultRate
	if maxRate <= 0 {
		maxRate = 0.2
	}
	modules := ctx.FleetSize
	if modules <= 0 {
		modules = fleetDefaultModules
	}
	shards := ctx.FleetShards
	if shards <= 0 {
		shards = fleetDefaultShards
	}
	img, err := buildFleetImages()
	if err != nil {
		return FleetOTAResult{}, err
	}
	tr, err := exp.RunTrials(ctx, func(trial int, trialSeed int64) ([]fleetPoint, error) {
		pts := make([]fleetPoint, len(fleetRateFracs))
		for ri, frac := range fleetRateFracs {
			ctx.Progressf("fleet_ota: trial %d rate %.3f (%d modules, %d shards)",
				trial, frac*maxRate, modules, shards)
			p, err := fleetOTATrial(img, trialSeed, ri, frac*maxRate, modules, shards)
			if err != nil {
				return nil, err
			}
			pts[ri] = p
		}
		return pts, nil
	})
	if err != nil {
		return FleetOTAResult{}, err
	}
	res := FleetOTAResult{
		Trials: tr.N(), Modules: modules, Shards: shards, MaxRate: maxRate,
	}
	for ri, frac := range fleetRateFracs {
		res.Points = append(res.Points, FleetOTAPoint{
			Rate:           frac * maxRate,
			UpdatedFrac:    tr.Metric(func(r []fleetPoint) float64 { return r[ri].updatedFrac }),
			RolloutMs:      tr.Metric(func(r []fleetPoint) float64 { return r[ri].rolloutMs }),
			Waves:          tr.Metric(func(r []fleetPoint) float64 { return r[ri].waves }),
			BlastRadius:    tr.Metric(func(r []fleetPoint) float64 { return r[ri].blast }),
			Remediated:     tr.Metric(func(r []fleetPoint) float64 { return r[ri].remediated }),
			RolledBack:     tr.Metric(func(r []fleetPoint) float64 { return r[ri].rolledBack }),
			TrippedShards:  tr.Metric(func(r []fleetPoint) float64 { return r[ri].tripped }),
			Aborts:         tr.Metric(func(r []fleetPoint) float64 { return r[ri].aborts }),
			BakeFailures:   tr.Metric(func(r []fleetPoint) float64 { return r[ri].bakeFails }),
			Retries:        tr.Metric(func(r []fleetPoint) float64 { return r[ri].retries }),
			InjectedFaults: tr.Metric(func(r []fleetPoint) float64 { return r[ri].injected }),
		})
		badEnd := tr.Metric(func(r []fleetPoint) float64 { return r[ri].badEnd })
		res.BadEnd += int(badEnd.Mean * float64(badEnd.N))
		staleEnd := tr.Metric(func(r []fleetPoint) float64 { return r[ri].staleEnd })
		res.StaleEnd += int(staleEnd.Mean * float64(staleEnd.N))
	}
	if last := tr.Metric(func(r []fleetPoint) float64 { return r[len(fleetRateFracs)-1].memberSnaps }); last.N > 0 {
		res.MemberSnaps = int(last.Mean)
	}
	if last := tr.Metric(func(r []fleetPoint) float64 { return r[len(fleetRateFracs)-1].shardFolds }); last.N > 0 {
		res.ShardFolds = int(last.Mean)
	}
	return res, nil
}

// Render formats the fleet-scale chaos sweep.
func (r FleetOTAResult) Render() string {
	t := exp.NewTable("Fault rate", "Updated", "Rollout (ms)", "Waves", "Blast",
		"Remediated", "Rolled back", "Tripped", "Aborts", "Bake fails", "Retries")
	for _, p := range r.Points {
		t.Add(fmt.Sprintf("%.3f", p.Rate),
			fmtCI(p.UpdatedFrac, 3),
			fmtCI(p.RolloutMs, 1),
			fmtCI(p.Waves, 1),
			fmtCI(p.BlastRadius, 1),
			fmtCI(p.Remediated, 1),
			fmtCI(p.RolledBack, 1),
			fmtCI(p.TrippedShards, 2),
			fmtCI(p.Aborts, 2),
			fmtCI(p.BakeFailures, 1),
			fmtCI(p.Retries, 0))
	}
	head := fmt.Sprintf(
		"Fleet OTA under chaos: %d modules over %d controller shards (canaries %d/shard, waves of %d, shard gate >%.0f%%, breaker >%.0f%%), %d trials\n",
		r.Modules, r.Shards, fleetCanaries, fleetWaveSize, fleetShardGate*100, fleetGlobalGate*100, r.Trials)
	foot := fmt.Sprintf(
		"\nmodules left on a bad image: %d, updated but on a stale version: %d; telemetry: %d member snaps folded in shards, global merge touched %d folds\n",
		r.BadEnd, r.StaleEnd, r.MemberSnaps, r.ShardFolds)
	return head + t.String() + foot
}

func runFleetOTA(ctx exp.RunContext) (exp.Result, error) {
	r, err := fleetSweep(ctx)
	if err != nil {
		return nil, err
	}
	env := exp.Envelope{Name: "fleet_ota", Params: ctx.Params(), Detail: r}
	if n := len(r.Points); n > 0 {
		last := r.Points[n-1]
		env.Metrics = []exp.Metric{
			exp.Scalar("modules", "", float64(r.Modules)),
			exp.Scalar("controller_shards", "", float64(r.Shards)),
			exp.FromSummary("rollout_ms_at_max", "ms", last.RolloutMs),
			exp.FromSummary("blast_radius_at_max", "modules", last.BlastRadius),
			exp.FromSummary("rolled_back_at_max", "modules", last.RolledBack),
			exp.Scalar("modules_bad_end", "", float64(r.BadEnd)),
			exp.Scalar("modules_stale_version", "", float64(r.StaleEnd)),
		}
	}
	return exp.NewResult(env, r.Render), nil
}
