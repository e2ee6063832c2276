package daemon

import (
	"errors"
	"fmt"

	"flexsfp/internal/bitstream"
	"flexsfp/internal/faults"
	"flexsfp/internal/mgmt"
	"flexsfp/internal/netsim"
	"flexsfp/internal/telemetry"
)

// SimMember is a lightweight in-memory FleetMember for fleet-scale
// simulation: no TCP, no flash device, no netsim event loop — just the
// A/B slot state machine, signature verification, and a per-member fault
// injector driving the chaos a real OTA wave would see. A member costs
// ≈600 B to build (measured: the struct with its config, four slots, the
// name, the injector and its 8-byte lane stream; the images are shared), so
// 100k of them are ≈60 MB and 1M ≈600 MB, which is what lets the fleet_ota
// experiment exercise the controller at the paper's deployment scale.
//
// A SimMember is driven by exactly one shard worker at a time (the
// FleetMember contract), so it carries no locks; its randomness comes
// from its own derived injector, making the whole fleet's behavior a
// pure function of the root seed.
type SimMember struct {
	name string
	inj  *faults.Injector
	cfg  SimMemberConfig

	// slots[i] holds slot i's signed image; a power-cut slot keeps its
	// bytes but is marked unbootable.
	slots      []simSlot
	activeSlot int
	running    bool
	// version is the AppVersion of the image running from activeSlot,
	// remembered when the slot boots: what a pushed image must not be
	// older than.
	version uint32

	// wedged marks a member that booted the target image but hung;
	// lateWedged only manifests from the second Stats read after boot
	// (the failure mode the inter-wave bake exists to catch).
	wedged     bool
	lateWedged bool
	statsReads int

	pushes    uint64
	retries   uint64
	boots     uint64
	fallbacks uint64
	tampered  uint64
	powerCuts uint64

	costNs     uint64 // accumulated simulated time across all ops
	lastOpCost uint64 // simulated cost of the most recent Push/Reboot
}

type simSlot struct {
	img []byte
	ok  bool // false after a power cut mid-write
}

// SimMemberConfig shapes a simulated member's failure model. The
// transport-level rates (ConnDrop, Stall) come from the injector; these
// are the image/boot-level hazards layered on top, each rolled once per
// landed push or boot on the member's own fault stream.
type SimMemberConfig struct {
	// Key is the fleet's bitstream signing key; boots verify against it.
	Key []byte
	// Retry is the push retry schedule (mgmt.RetryPolicy semantics, with
	// Backoff's deterministic jitter); zero value = single attempt.
	Retry mgmt.RetryPolicy
	// TamperProb: a landed push stores a tampered copy of the image
	// (mode drawn from the member's stream) — boot verification rejects
	// it and falls back to the previous slot.
	TamperProb float64
	// PowerCutProb: power fails mid-write after the transport ack; the
	// slot is left unbootable and boot falls back.
	PowerCutProb float64
	// WedgeProb: the target image verifies and boots but the app hangs
	// immediately (caught by the first health check).
	WedgeProb float64
	// LateWedgeProb: the app hangs only after the first health check
	// passes (caught by the inter-wave bake, or never).
	LateWedgeProb float64
}

// NewSimMember builds a member with goodImage installed and running in
// slot startSlot. inj must be the member's private injector (typically
// parent.Derive(lane)).
func NewSimMember(name string, inj *faults.Injector, cfg SimMemberConfig, slots, startSlot int, goodImage []byte) *SimMember {
	version, _ := imageVersion(goodImage, cfg.Key)
	return newSimMember(name, inj, cfg, slots, startSlot, goodImage, version)
}

// newSimMember takes goodImage's already-verified version, so a fleet that
// shares one image verifies it once, not once per member.
func newSimMember(name string, inj *faults.Injector, cfg SimMemberConfig, slots, startSlot int, goodImage []byte, version uint32) *SimMember {
	if slots < 2 {
		slots = 2
	}
	m := &SimMember{
		name:       name,
		inj:        inj,
		cfg:        cfg,
		slots:      make([]simSlot, slots),
		activeSlot: startSlot,
		running:    true,
		version:    version,
	}
	m.slots[startSlot] = simSlot{img: goodImage, ok: true}
	return m
}

// imageVersion verifies a signed image the way the boot ROM would —
// signature, then magic, format, length and CRC — and returns its
// AppVersion; ok is false when any layer rejects it.
func imageVersion(signed, key []byte) (version uint32, ok bool) {
	body, err := bitstream.Verify(signed, key)
	if err != nil {
		return 0, false
	}
	version, err = bitstream.Check(body)
	return version, err == nil
}

// Name implements FleetMember.
func (m *SimMember) Name() string { return m.name }

// CostNs returns the member's total simulated operation time.
func (m *SimMember) CostNs() uint64 { return m.costNs }

// LastOpCostNs returns the simulated cost of the most recent Push or
// Reboot — the per-wave latency contribution WaveCost hooks want.
func (m *SimMember) LastOpCostNs() uint64 { return m.lastOpCost }

// Injector exposes the member's fault injector (for chaos accounting).
func (m *SimMember) Injector() *faults.Injector { return m.inj }

// Simulated operation costs, in netsim time.
const (
	simPushBaseNs  = uint64(500 * netsim.Microsecond) // session setup + verify
	simPushPerByte = uint64(20 * netsim.Nanosecond)   // chunked transfer rate
	simBootNs      = uint64(5 * netsim.Millisecond)   // reconfig + app start
	simStallNs     = uint64(2 * netsim.Millisecond)   // deadline burned by a stall
)

var errSlotRange = errors.New("daemon: slot out of range")

// Push implements FleetMember: a resumable chunked OTA with transport
// chaos. Each attempt may stall or drop; a dropped request still landed
// with probability 0.5 (mgmt's documented ConnDrop ambiguity). A landed
// write may store a tampered copy or lose power mid-write.
func (m *SimMember) Push(signed []byte, slot int, rebootAfter bool) error {
	if slot < 0 || slot >= len(m.slots) {
		return errSlotRange
	}
	attempts := m.cfg.Retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	cost := uint64(0)
	landed := false
	var lastErr error
	id := uint32(m.pushes) // deterministic per-member request id
	for a := 0; a < attempts; a++ {
		if a > 0 {
			m.retries++
			cost += uint64(m.cfg.Retry.Backoff(id, a-1))
		}
		m.pushes++
		switch {
		case m.inj.Roll(m.inj.Rates().Stall):
			cost += simStallNs
			lastErr = faults.ErrStalled
			continue
		case m.inj.Roll(m.inj.Rates().ConnDrop):
			cost += simPushBaseNs / 2
			if m.inj.Roll(0.5) {
				landed = true // ack lost, write happened
			}
			lastErr = faults.ErrConnDropped
			if landed {
				break
			}
			continue
		default:
			cost += simPushBaseNs + simPushPerByte*uint64(len(signed))
			landed = true
			lastErr = nil
		}
		break
	}
	if landed {
		m.storeImage(signed, slot)
	}
	if lastErr != nil && !landed {
		m.bumpCost(cost)
		return lastErr
	}
	if rebootAfter {
		cost += m.boot(slot, true)
	}
	m.bumpCost(cost)
	if lastErr != nil {
		return lastErr // landed, but the controller saw a dropped conn
	}
	return nil
}

// storeImage writes the slot, applying image-level chaos.
func (m *SimMember) storeImage(signed []byte, slot int) {
	img := signed
	if m.inj.Roll(m.cfg.TamperProb) {
		mode := faults.TamperCRC
		if m.inj.Roll(0.5) {
			mode = faults.TamperTruncate
		}
		if m.inj.Roll(0.5) {
			mode += 2 // TamperWrongKey / TamperStale
		}
		img = m.inj.TamperSigned(signed, m.cfg.Key, mode)
		m.tampered++
	}
	ok := true
	if m.inj.Roll(m.cfg.PowerCutProb) {
		ok = false
		m.powerCuts++
	}
	m.slots[slot] = simSlot{img: img, ok: ok}
}

// boot attempts to activate slot, falling back to the current active
// slot when the boot ROM rejects the image (the golden-fallback path).
// fresh is the push path's anti-rollback (core.Module.InstallSigned's):
// an image older than the running one is rejected like any other bad
// slot, an equal one is a re-push and boots. The rollback path passes
// false — going back to the previous, older slot is its whole point.
// Returns the simulated boot cost.
func (m *SimMember) boot(slot int, fresh bool) uint64 {
	m.boots++
	m.wedged, m.lateWedged, m.statsReads = false, false, 0
	version, ok := m.slotBootable(slot)
	if ok && fresh && m.running && version < m.version {
		ok = false
	}
	if !ok {
		// Boot ROM rejects the slot and re-activates the previous image.
		m.fallbacks++
		_, m.running = m.slotBootable(m.activeSlot)
		return 2 * simBootNs
	}
	m.activeSlot = slot
	m.running = true
	m.version = version
	if m.inj.Roll(m.cfg.WedgeProb) {
		m.wedged = true
	} else if m.inj.Roll(m.cfg.LateWedgeProb) {
		m.lateWedged = true
	}
	return simBootNs
}

// slotBootable verifies a slot the way the boot ROM would — bytes present,
// no power-cut scar, signature and CRC valid — and returns the image's
// AppVersion for the caller's freshness check. The fast path (identical
// bytes to a previously verified image) is skipped on purpose:
// verification cost is charged to simBootNs either way.
func (m *SimMember) slotBootable(slot int) (version uint32, ok bool) {
	s := m.slots[slot]
	if len(s.img) == 0 || !s.ok {
		return 0, false
	}
	return imageVersion(s.img, m.cfg.Key)
}

// Reboot implements FleetMember: boot into slot (the rollback path).
// Reliable — rollback rides the already-open mgmt session.
func (m *SimMember) Reboot(slot int) error {
	if slot < 0 || slot >= len(m.slots) {
		return errSlotRange
	}
	m.bumpCost(m.boot(slot, false))
	if !m.running {
		return fmt.Errorf("daemon: %s failed to boot slot %d", m.name, slot)
	}
	return nil
}

// Stats implements FleetMember. Reads are reliable (the mgmt session's
// stats path retries internally); a late-wedged member reports healthy
// on the first read after boot and hung from the second — which is
// exactly what an inter-wave bake exists to catch.
func (m *SimMember) Stats() (mgmt.Stats, error) {
	m.statsReads++
	running := m.running && !m.wedged
	if m.lateWedged && m.statsReads > 1 {
		running = false
	}
	return mgmt.Stats{
		Running:         running,
		ActiveSlot:      m.activeSlot,
		Boots:           m.boots,
		GoldenFallbacks: m.fallbacks,
	}, nil
}

// Wedged reports whether the member is currently hung (for tests).
func (m *SimMember) Wedged() bool {
	return m.wedged || (m.lateWedged && m.statsReads > 1)
}

// ActiveSlot returns the member's active slot (for tests/invariants).
func (m *SimMember) ActiveSlot() int { return m.activeSlot }

// Running reports app liveness ignoring read-count effects: false for
// wedged and late-wedged members alike.
func (m *SimMember) Running() bool { return m.running && !m.wedged && !m.lateWedged }

// ActiveVersion re-verifies the active slot and returns the AppVersion of
// the image in it — ground truth read from the slot's bytes, not the
// version remembered at boot. ok is false when the slot fails verification.
func (m *SimMember) ActiveVersion() (version uint32, ok bool) {
	return m.slotBootable(m.activeSlot)
}

// OnBadImage reports whether the member's active slot fails verification
// — the invariant the fleet controller must drive to zero.
func (m *SimMember) OnBadImage() bool {
	_, ok := m.ActiveVersion()
	return !ok
}

func (m *SimMember) bumpCost(ns uint64) {
	m.costNs += ns
	m.lastOpCost = ns
}

// Telemetry implements FleetMember: a small snapshot in registry form so
// per-member data flows through the same hierarchical fold as real
// modules' telemetry.
func (m *SimMember) Telemetry() (telemetry.Snapshot, error) {
	buckets := []telemetry.BucketSnap{
		{UpperBound: uint64(netsim.Millisecond), Count: 0},
		{UpperBound: uint64(10 * netsim.Millisecond), Count: 0},
		{UpperBound: uint64(100 * netsim.Millisecond), Count: 0},
		{Overflow: true, Count: 0},
	}
	switch {
	case m.costNs <= uint64(netsim.Millisecond):
		buckets[0].Count = 1
	case m.costNs <= uint64(10*netsim.Millisecond):
		buckets[1].Count = 1
	case m.costNs <= uint64(100*netsim.Millisecond):
		buckets[2].Count = 1
	default:
		buckets[3].Count = 1
	}
	snap := telemetry.Snapshot{
		Counters: []telemetry.CounterSnap{
			{Name: "ota_boots", Value: m.boots},
			{Name: "ota_fallbacks", Value: m.fallbacks},
			{Name: "ota_pushes", Value: m.pushes},
			{Name: "ota_retries", Value: m.retries},
		},
		Histograms: []telemetry.HistogramSnap{{
			Name: "ota_member_cost_ns", Count: 1, Sum: m.costNs,
			Min: m.costNs, Max: m.costNs, Mean: float64(m.costNs),
			Buckets: buckets,
		}},
	}
	return snap, nil
}

// BuildSimFleet constructs n members named sim-000000… with goodImage
// running in startSlot, each with its own injector derived from parent
// (lane = member index). Deterministic for a fixed parent seed.
func BuildSimFleet(n int, parent *faults.Injector, cfg SimMemberConfig, slots, startSlot int, goodImage []byte) []FleetMember {
	version, _ := imageVersion(goodImage, cfg.Key)
	ms := make([]FleetMember, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("sim-%06d", i)
		ms[i] = newSimMember(name, parent.Derive(uint64(i)), cfg, slots, startSlot, goodImage, version)
	}
	return ms
}
