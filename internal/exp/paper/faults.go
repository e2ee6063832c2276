package paper

import (
	"fmt"

	"flexsfp/internal/apps"
	"flexsfp/internal/bitstream"
	"flexsfp/internal/build"
	"flexsfp/internal/core"
	"flexsfp/internal/daemon"
	"flexsfp/internal/exp"
	"flexsfp/internal/faults"
	"flexsfp/internal/fpga"
	"flexsfp/internal/hls"
	"flexsfp/internal/mgmt"
	"flexsfp/internal/netsim"
	"flexsfp/internal/runner"
)

// ---------------------------------------------------------------------------
// Reconfiguration under faults (§4.2 made adversarial): a fleet-wide canary
// rollout of a new bitstream (daemon.FleetController driving each module's
// mgmt.Client through a ClientMember) while the fault injector attacks the
// mgmt transport (connection drops, stalls, byte corruption), cuts power during
// flash commits, and wedges freshly configured PPEs so the watchdog must
// fall back to golden. Sweeps a fault-rate multiplier and reports recovery
// time, rollout availability, and self-healing counters as mean ± 95% CI.
//
// Determinism: every module owns its simulator and injector, seeded from
// the trial seed, so member outcomes are independent of fleet goroutine
// interleaving and the whole experiment is bit-identical for any -parallel
// setting.

// Fleet/rollout shape of the experiment.
const (
	faultFleetModules  = 6
	faultTargetSlot    = 2
	faultCanaries      = 2
	faultWaveSize      = 2
	faultMaxFailFrac   = 0.3
	faultRetryAttempts = 4
)

// Per-event probabilities at fault-rate multiplier 1.0.
var faultBaseRates = faults.Rates{ConnDrop: 0.08, Stall: 0.05, Corrupt: 0.05}

const (
	faultWedgeProb    = 0.22 // new design comes up wedged (per reboot into it)
	faultPowerCutProb = 0.10 // power cut during the commit's flash program
)

// FaultRatePoint aggregates one fault-rate setting across trials.
type FaultRatePoint struct {
	Rate float64 // fault-rate multiplier applied to all probabilities

	Availability    runner.Summary // fraction of modules running at the end
	UpgradeRate     runner.Summary // fraction running the new image
	RecoveryMs      runner.Summary // mean per-module reconfigure+recovery time
	GoldenFallbacks runner.Summary // boots recovered onto the golden image
	WatchdogTrips   runner.Summary // wedged-PPE detections
	CanaryRollbacks runner.Summary // rollouts aborted and rolled back (0/1)
	ClientRetries   runner.Summary // mgmt request retries across the fleet
	InjectedFaults  runner.Summary // total faults the injectors fired
}

// ReconfigUnderFaultsResult is the §4.2 chaos sweep.
type ReconfigUnderFaultsResult struct {
	Trials  int
	Modules int
	MaxRate float64
	Points  []FaultRatePoint
}

// faultPoint is one trial's raw metrics at one fault rate.
type faultPoint struct {
	avail, upgraded, recoveryMs float64
	golden, watchdog, rollback  float64
	retries, injected           float64
}

// faultImages holds the shared (deterministic) compiled artifacts: the
// golden fallback, the running v1, and the signed v2 being rolled out.
type faultImages struct {
	registry *core.Registry
	golden   []byte
	v1       []byte
	signedV2 []byte
}

func buildFaultImages() (*faultImages, error) {
	registry := apps.NewRegistry()
	compile := func(golden bool, bumpVersion uint32) ([]byte, error) {
		app, err := registry.New("nat")
		if err != nil {
			return nil, err
		}
		if err := app.Configure(nil); err != nil {
			return nil, err
		}
		prog := app.Program()
		prog.Version += bumpVersion
		d, err := hls.Compile(prog, hls.Options{
			Device: fpga.MPF200T, Shell: hls.TwoWayCore,
			ClockHz: build.BaseClockHz, DatapathBits: build.BaseDatapathBits,
			Golden: golden,
		})
		if err != nil {
			return nil, err
		}
		return d.Bitstream.Encode()
	}
	golden, err := compile(true, 0)
	if err != nil {
		return nil, err
	}
	v1, err := compile(false, 0)
	if err != nil {
		return nil, err
	}
	v2, err := compile(false, 1)
	if err != nil {
		return nil, err
	}
	return &faultImages{
		registry: registry, golden: golden, v1: v1,
		signedV2: bitstream.Sign(v2, build.DefaultAuthKey),
	}, nil
}

// reconfigFaultsTrial runs one fleet rollout at one fault rate.
func reconfigFaultsTrial(img *faultImages, trialSeed int64, rateIdx int, rate float64) (faultPoint, error) {
	mods := make([]*core.Module, faultFleetModules)
	sims := make([]*netsim.Simulator, faultFleetModules)
	injs := make([]*faults.Injector, faultFleetModules)
	clients := make([]*mgmt.Client, faultFleetModules)
	members := make([]daemon.FleetMember, faultFleetModules)

	rates := faultBaseRates.Scaled(rate)
	wedgeProb := faultWedgeProb * rate
	powerCutProb := faultPowerCutProb * rate

	for i := 0; i < faultFleetModules; i++ {
		name := fmt.Sprintf("sfp-%02d", i)
		lane := int64(rateIdx*64 + i)
		sim := netsim.New(runner.TrialSeed(trialSeed, int(1000+lane)))
		inj := faults.New(runner.TrialSeed(trialSeed, int(2000+lane)), rates)
		mod := core.NewModule(core.Config{
			Sim: sim, Name: name, DeviceID: uint32(i + 1),
			Shell: hls.TwoWayCore, Registry: img.registry,
			AuthKey: build.DefaultAuthKey,
		})
		if _, err := mod.Install(0, img.golden); err != nil {
			return faultPoint{}, err
		}
		if _, err := mod.Install(1, img.v1); err != nil {
			return faultPoint{}, err
		}
		if err := mod.BootSync(1); err != nil {
			return faultPoint{}, err
		}
		// Wedge model: a non-golden design fails its post-reconfigure
		// health probe with probability wedgeProb; golden never wedges.
		mod.SetHealthProbe(func(slot int) bool {
			if bs, _, err := mod.Flash.LoadBitstream(slot); err == nil && bs.Golden() {
				return true
			}
			return !inj.Roll(wedgeProb)
		})
		agent := mgmt.NewAgent(mod)
		// The transport serves the agent then drains the module's own
		// simulator, so reboot/watchdog/fallback chains complete within
		// the request. A commit may be followed by a power cut that
		// corrupts the target slot before the scheduled reboot reads it.
		base := mgmt.TransportFunc(func(req []byte) ([]byte, error) {
			resp := agent.Handle(req)
			if msg, derr := mgmt.DecodeMessage(req); derr == nil && msg.Type == mgmt.MsgXferCommit {
				if inj.Roll(powerCutProb) {
					if err := inj.PowerCut(mod.Flash, faultTargetSlot, 0.5); err != nil {
						return nil, err
					}
				}
			}
			sim.Run()
			return resp, nil
		})
		c := mgmt.NewClient(inj.WrapTransport(base))
		c.SetRetryPolicy(mgmt.RetryPolicy{MaxAttempts: faultRetryAttempts})
		mods[i], sims[i], injs[i], clients[i] = mod, sim, inj, c
		members[i] = daemon.NewClientMember(name, c)
	}

	rep := daemon.NewFleetController(daemon.FleetConfig{
		TargetSlot:     faultTargetSlot,
		Canaries:       faultCanaries,
		WaveSize:       faultWaveSize,
		MaxFailureFrac: faultMaxFailFrac,
	}, members).Rollout(img.signedV2)

	var p faultPoint
	if rep.TrippedShards > 0 {
		p.rollback = 1
	}
	for i, mod := range mods {
		sims[i].Run()
		if mod.Running() {
			p.avail++
			if mod.ActiveSlot() == faultTargetSlot {
				p.upgraded++
			}
		}
		st := mod.Stats()
		p.golden += float64(st.GoldenFallbacks)
		p.watchdog += float64(st.WatchdogTrips)
		p.recoveryMs += float64(sims[i].Now()) / float64(netsim.Millisecond)
		p.retries += float64(clients[i].Retries())
		p.injected += float64(injs[i].Stats().Total())
	}
	p.avail /= faultFleetModules
	p.upgraded /= faultFleetModules
	p.recoveryMs /= faultFleetModules
	return p, nil
}

// faultRateFracs are the sweep points as fractions of the max rate.
var faultRateFracs = []float64{0, 0.25, 0.5, 1.0}

// faultsSweep sweeps fault rates over ctx.Trials independent seeds
// (workers bounded by ctx.Parallelism; 0 = GOMAXPROCS). The max rate
// travels as ctx.FaultRate; <= 0 defaults to 0.2.
func faultsSweep(ctx exp.RunContext) (ReconfigUnderFaultsResult, error) {
	maxRate := ctx.FaultRate
	if maxRate <= 0 {
		maxRate = 0.2
	}
	img, err := buildFaultImages()
	if err != nil {
		return ReconfigUnderFaultsResult{}, err
	}
	tr, err := exp.RunTrials(ctx, func(_ int, trialSeed int64) ([]faultPoint, error) {
		pts := make([]faultPoint, len(faultRateFracs))
		for ri, frac := range faultRateFracs {
			p, err := reconfigFaultsTrial(img, trialSeed, ri, frac*maxRate)
			if err != nil {
				return nil, err
			}
			pts[ri] = p
		}
		return pts, nil
	})
	if err != nil {
		return ReconfigUnderFaultsResult{}, err
	}
	res := ReconfigUnderFaultsResult{Trials: tr.N(), Modules: faultFleetModules, MaxRate: maxRate}
	for ri, frac := range faultRateFracs {
		res.Points = append(res.Points, FaultRatePoint{
			Rate:            frac * maxRate,
			Availability:    tr.Metric(func(r []faultPoint) float64 { return r[ri].avail }),
			UpgradeRate:     tr.Metric(func(r []faultPoint) float64 { return r[ri].upgraded }),
			RecoveryMs:      tr.Metric(func(r []faultPoint) float64 { return r[ri].recoveryMs }),
			GoldenFallbacks: tr.Metric(func(r []faultPoint) float64 { return r[ri].golden }),
			WatchdogTrips:   tr.Metric(func(r []faultPoint) float64 { return r[ri].watchdog }),
			CanaryRollbacks: tr.Metric(func(r []faultPoint) float64 { return r[ri].rollback }),
			ClientRetries:   tr.Metric(func(r []faultPoint) float64 { return r[ri].retries }),
			InjectedFaults:  tr.Metric(func(r []faultPoint) float64 { return r[ri].injected }),
		})
	}
	return res, nil
}

// Render formats the chaos sweep.
func (r ReconfigUnderFaultsResult) Render() string {
	t := exp.NewTable("Fault rate", "Availability", "Upgraded", "Recovery (ms)",
		"Golden fb", "Watchdog", "Rollbacks", "Retries", "Faults")
	for _, p := range r.Points {
		t.Add(fmt.Sprintf("%.3f", p.Rate),
			fmtCI(p.Availability, 3),
			fmtCI(p.UpgradeRate, 3),
			fmtCI(p.RecoveryMs, 1),
			fmtCI(p.GoldenFallbacks, 2),
			fmtCI(p.WatchdogTrips, 2),
			fmtCI(p.CanaryRollbacks, 2),
			fmtCI(p.ClientRetries, 1),
			fmtCI(p.InjectedFaults, 1))
	}
	head := fmt.Sprintf(
		"Reconfiguration under faults (§4.2): %d modules, canary rollout (K=%d, waves of %d, rollback >%.0f%% failures), %d trials\n",
		r.Modules, faultCanaries, faultWaveSize, faultMaxFailFrac*100, r.Trials)
	return head + t.String()
}

func runFaults(ctx exp.RunContext) (exp.Result, error) {
	r, err := faultsSweep(ctx)
	if err != nil {
		return nil, err
	}
	env := exp.Envelope{Name: "faults", Params: ctx.Params(), Detail: r}
	if n := len(r.Points); n > 0 {
		last := r.Points[n-1]
		env.Metrics = []exp.Metric{
			exp.Scalar("max_rate", "", r.MaxRate),
			exp.FromSummary("availability_at_max", "frac", last.Availability),
			exp.FromSummary("injected_faults_at_max", "", last.InjectedFaults),
		}
	}
	return exp.NewResult(env, r.Render), nil
}
