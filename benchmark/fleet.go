package main

import (
	"fmt"
	"time"

	"flexsfp/internal/bitstream"
	"flexsfp/internal/build"
	"flexsfp/internal/daemon"
	"flexsfp/internal/faults"
	"flexsfp/internal/mgmt"
	"flexsfp/internal/netsim"
)

// Fleet shape and chaos: the fleet_ota experiment's defaults at its
// nominal fault-rate 0.2.
const (
	fleetShards    = 64
	fleetSlots     = 4
	fleetStartSlot = 1
	fleetCanaries  = 4
	fleetWaveSize  = 256
	fleetFaultRate = 0.2
	fleetBakeNs    = uint64(10 * netsim.Millisecond)
)

var fleetBaseRates = faults.Rates{ConnDrop: 0.10, Stall: 0.10}

func fleetImage(version uint32) ([]byte, error) {
	enc, err := (&bitstream.Bitstream{
		AppName: "nat", AppVersion: version, Device: "MPF200T",
		ClockKHz: build.BaseClockHz / 1000, DatapathBits: build.BaseDatapathBits,
		Payload: make([]byte, 256),
	}).Encode()
	if err != nil {
		return nil, err
	}
	return bitstream.Sign(enc, build.DefaultAuthKey), nil
}

// tracedMember wraps a SimMember so the traced pass can time the calls the
// controller makes into it; one member in 64 records.
type tracedMember struct {
	*daemon.SimMember
	tr *tracer
	id uint64
}

func (m *tracedMember) Push(signed []byte, slot int, rebootAfter bool) error {
	h := m.tr.begin(spFleetPush, m.id, 0)
	err := m.SimMember.Push(signed, slot, rebootAfter)
	m.tr.end(h)
	return err
}

func (m *tracedMember) Stats() (mgmt.Stats, error) {
	h := m.tr.begin(spFleetStats, m.id, 0)
	st, err := m.SimMember.Stats()
	m.tr.end(h)
	return st, err
}

func simMember(m daemon.FleetMember) *daemon.SimMember {
	if t, ok := m.(*tracedMember); ok {
		return t.SimMember
	}
	return m.(*daemon.SimMember)
}

// fleetWorkload is FleetController.Rollout over a simulated fleet under
// chaos, followed by the hierarchical telemetry fold. No TCP, no netsim.
type fleetWorkload struct {
	sz       sizing
	members  int
	rollouts int
}

func newFleetWorkload(sz sizing) *fleetWorkload {
	return &fleetWorkload{sz: sz, members: sz.pick(100_000, 2_000), rollouts: 2}
}

func (w *fleetWorkload) work() map[string]float64 {
	return map[string]float64{"members": float64(w.members), "rollouts": float64(w.rollouts),
		"shards": fleetShards, "fault_rate": fleetFaultRate}
}

func (w *fleetWorkload) run(tr *tracer) repeat {
	r := repeat{exact: map[string]float64{}, samples: map[string][]float64{}}
	r.perOpNs = make([]float64, 0, 1)

	t0 := time.Now()
	oldImg, err := fleetImage(3)
	if err != nil {
		r.check(false, "setup: %v", err)
		return r
	}
	newImg, err := fleetImage(9)
	if err != nil {
		r.check(false, "setup: %v", err)
		return r
	}
	parent := faults.New(w.sz.seed, fleetBaseRates.Scaled(fleetFaultRate))
	cfg := daemon.SimMemberConfig{
		Key:           build.DefaultAuthKey,
		Retry:         mgmt.RetryPolicy{MaxAttempts: 4, BaseBackoff: 1 << 20, MaxBackoff: 1 << 23},
		TamperProb:    0.025 * fleetFaultRate,
		PowerCutProb:  0.025 * fleetFaultRate,
		WedgeProb:     0.010 * fleetFaultRate,
		LateWedgeProb: 0.010 * fleetFaultRate,
	}
	b0 := time.Now()
	members := daemon.BuildSimFleet(w.members, parent, cfg, fleetSlots, fleetStartSlot, oldImg)
	r.samples["daemon.simfleet.build_us_per_member"] = []float64{float64(time.Since(b0).Nanoseconds()) / 1e3 / float64(w.members)}
	if tr != nil {
		for i, m := range members {
			if tr.sampled(uint64(i)) {
				members[i] = &tracedMember{SimMember: m.(*daemon.SimMember), tr: tr, id: uint64(i)}
			}
		}
	}
	r.setupS = time.Since(t0).Seconds()

	var (
		d                           digester
		attempted                   uint64
		costNs, waves, retries      float64
		rolledBack, remediated, bad float64
		rolloutNs, foldNs           int64
	)
	h0 := sampleHost()
	for k := 0; k < w.rollouts; k++ {
		// Alternate slots 2 and 3. Members start on slot 1, so two rollouts
		// never target a slot some member is running from.
		target := 2 + k%2
		s0 := time.Now()
		c := daemon.NewFleetController(daemon.FleetConfig{
			Shards: fleetShards, TargetSlot: target,
			Canaries: fleetCanaries, WaveSize: fleetWaveSize, Bake: true,
			MaxFailureFrac: 0.5, GlobalMaxFailureFrac: 0.8,
			WaveCost: func(_ int, batch []daemon.FleetMember) uint64 {
				// A wave's members push in parallel on the wire: it costs
				// its slowest member plus the health-bake dwell.
				var maxNs uint64
				for _, m := range batch {
					maxNs = max(maxNs, simMember(m).LastOpCostNs())
				}
				return maxNs + fleetBakeNs
			},
		}, members)
		rep := c.Rollout(newImg)
		s1 := time.Now()
		snap, fold := c.AggregateTelemetry()
		s2 := time.Now()
		rolloutNs += s1.Sub(s0).Nanoseconds()
		foldNs += s2.Sub(s1).Nanoseconds()

		attempted += uint64(rep.Attempted)
		costNs += float64(rep.CostNs)
		waves += float64(rep.Waves)
		rolledBack += float64(rep.RolledBack)
		remediated += float64(rep.Remediated)
		bad += float64(rep.BadEnd)
		if v, ok := snap.Counter("ota_retries"); ok {
			retries = float64(v) // cumulative over the members' lifetime
		}
		r.check(fold.MemberSnaps == w.members && fold.SnapErrs == 0,
			"telemetry fold saw %d of %d members, %d errors", fold.MemberSnaps, w.members, fold.SnapErrs)
		d.add(fmt.Sprintf("rollout%d", k), fmt.Sprint(rep.Attempted, rep.Updated, rep.Failed, rep.Waves,
			rep.TrippedShards, rep.Aborted, rep.BlastRadius, rep.Remediated, rep.RolledBack, rep.BadEnd, rep.CostNs))
	}
	h1 := sampleHost()
	r.win = h0.until(h1, attempted)
	// One per-op sample per repeat, over both rollouts: the second rollout
	// of a fleet costs less than the first, and a median over the two kinds
	// would sit on whichever has one sample more.
	r.perOpNs = append(r.perOpNs, float64(rolloutNs+foldNs)/float64(attempted))

	// Ground truth from the members, not the controller's report: nobody
	// ends on an image that fails verification or wedged on the target.
	var badEnd uint64
	for _, m := range members {
		if sm := simMember(m); sm.OnBadImage() || sm.Wedged() {
			badEnd++
		}
	}
	r.count(attempted, badEnd, "%d members ended on a bad image or wedged", badEnd)
	r.check(bad == 0, "controller reported %v members bad at end", bad)

	n := float64(w.rollouts)
	r.exact["modeled_rollout_ms"] = costNs / n / float64(netsim.Millisecond)
	r.exact["daemon.fleet.waves"] = waves / n
	r.exact["daemon.fleet.retries"] = retries
	r.exact["daemon.fleet.rolled_back"] = rolledBack
	r.exact["daemon.fleet.remediated"] = remediated
	r.samples["daemon.fleet.rollout_s"] = []float64{float64(rolloutNs) / 1e9 / n}
	r.samples["telemetry.fold.ns_per_member"] = []float64{float64(foldNs) / n / float64(w.members)}
	d.add("bad_end", badEnd)
	r.digest = d.sum()
	return r
}

func (w *fleetWorkload) isolate(out *layerOut) {
	img, err := fleetImage(9)
	if err != nil {
		panic(err)
	}
	isoVerify(out, img, w.sz)
}
