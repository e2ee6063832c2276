package daemon

import (
	"bytes"
	"crypto/subtle"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"flexsfp/internal/bitstream"
	"flexsfp/internal/faults"
	"flexsfp/internal/mgmt"
	"flexsfp/internal/netsim"
	"flexsfp/internal/telemetry"
)

// SimMember is a lightweight in-memory FleetMember for fleet-scale
// simulation: no TCP, no flash device, no netsim event loop — just the
// A/B slot state machine, signature verification, and a per-member fault
// injector driving the chaos a real OTA wave would see. A member is one
// flat value: the injector (with its 8-byte lane stream) is embedded, and
// the config, the verified-image memo and the images are shared by the
// fleet. It costs ≈380 B to build (measured: the struct, four slots and
// the name) and no allocation of its own, so 100k of them are ≈38 MB and
// 1M ≈380 MB, which is what lets the fleet_ota experiment exercise the
// controller at the paper's deployment scale.
//
// A SimMember is driven by exactly one shard worker at a time (the
// FleetMember contract), so it carries no locks; its randomness comes
// from its own derived injector, making the whole fleet's behavior a
// pure function of the root seed.
//
// Field order is part of the cost model. A controller pass (preflight,
// bake, fold) touches each member once, cold, and reads only what Stats
// and Telemetry read; those fields come first and fit one 64-byte span
// (TestSimMemberHotSpan), so such a pass reads one span of each member,
// not the two or three lines those fields spread over when they were
// scattered through the struct. The span is one cache line only for
// every other member of BuildSimFleet's array: at 224 B, an odd-indexed
// member's span starts 32 bytes into a line and crosses into the next.
type SimMember struct {
	// The hot span: everything Stats and Telemetry read.
	statsReads int
	activeSlot int
	boots      uint64
	fallbacks  uint64
	pushes     uint64
	retries    uint64
	costNs     uint64 // accumulated simulated time across all ops
	running    bool
	// wedged marks a member that booted the target image but hung;
	// lateWedged only manifests from the second Stats read after boot
	// (the failure mode the inter-wave bake exists to catch).
	wedged     bool
	lateWedged bool
	// version is the AppVersion of the image running from activeSlot,
	// remembered when the slot boots: what a pushed image must not be
	// older than. It fills the span's last four bytes.
	version uint32

	name string
	inj  faults.Injector
	cfg  *simShared // shared by the fleet

	// slots[i] holds slot i's signed image; a power-cut slot keeps its
	// bytes but is marked unbootable.
	slots []simSlot

	tampered   uint64
	powerCuts  uint64
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

// simShared is what a fleet's members share: the config, never written,
// and the memo of images that passed verification.
type simShared struct {
	SimMemberConfig
	memo verifiedMemo
}

// init sets up a zero member over the caller's slot array and shared
// state. It takes goodImage's already-verified version, so a fleet that
// shares one image verifies it once, not once per member.
func (m *SimMember) init(name string, inj faults.Injector, cfg *simShared, slots []simSlot, startSlot int, goodImage []byte, version uint32) {
	*m = SimMember{
		name:       name,
		inj:        inj,
		cfg:        cfg,
		slots:      slots,
		activeSlot: startSlot,
		running:    true,
		version:    version,
	}
	m.slots[startSlot] = simSlot{img: goodImage, ok: true}
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

// verifiedMemo answers imageVersion for images that already passed it.
// Each entry is immutable and holds private copies of an image that
// verified and of its key, so a hit needs the slot's bytes to equal the
// copy byte for byte: a slot rewritten in place after a good boot misses
// and is verified again, and no verdict is ever tied to a slice. Only
// passing verdicts are stored (a failing image is hashed in full every
// time), and the small table is replaced whole on a store, so shard
// workers read it without a lock.
type verifiedMemo struct {
	mu     sync.Mutex // serializes stores
	tab    atomic.Pointer[memoTable]
	misses atomic.Uint64 // full verifications run
}

// memoTable holds a rollout's live passing images: the running one, the
// target and a stale re-signed copy, with one entry to spare. Entries are
// replaced round-robin.
type memoTable struct {
	entries [4]*memoEntry
	next    int
}

type memoEntry struct {
	img, key []byte
	version  uint32
}

// version returns imageVersion(img, key), from the memo when an entry
// holds the same bytes under the same key.
func (v *verifiedMemo) version(img, key []byte) (uint32, bool) {
	if e := v.tab.Load().find(img, key); e != nil {
		return e.version, true
	}
	v.misses.Add(1)
	version, ok := imageVersion(img, key)
	if ok {
		v.store(img, key, version)
	}
	return version, ok
}

// find returns the entry holding img under key, or nil.
func (t *memoTable) find(img, key []byte) *memoEntry {
	if t == nil {
		return nil
	}
	for _, e := range t.entries {
		if e != nil && bytes.Equal(img, e.img) && subtle.ConstantTimeCompare(key, e.key) == 1 {
			return e
		}
	}
	return nil
}

// store publishes a copy of a verified image unless an entry already
// holds it (another worker may have verified the same bytes meanwhile).
func (v *verifiedMemo) store(img, key []byte, version uint32) {
	v.mu.Lock()
	defer v.mu.Unlock()
	var t memoTable
	if old := v.tab.Load(); old != nil {
		if old.find(img, key) != nil {
			return
		}
		t = *old
	}
	t.entries[t.next] = &memoEntry{img: bytes.Clone(img), key: bytes.Clone(key), version: version}
	t.next = (t.next + 1) % len(t.entries)
	v.tab.Store(&t)
}

// Name implements FleetMember.
func (m *SimMember) Name() string { return m.name }

// LastOpCostNs returns the simulated cost of the most recent Push or
// Reboot — the per-wave latency contribution WaveCost hooks want.
func (m *SimMember) LastOpCostNs() uint64 { return m.lastOpCost }

// Injector exposes the member's fault injector (for chaos accounting).
func (m *SimMember) Injector() *faults.Injector { return &m.inj }

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
// AppVersion for the caller's freshness check. The verdict comes from the
// fleet's memo when the slot holds, byte for byte, an image that already
// passed under the same key; anything else is verified in full. The
// modelled verification cost is charged to simBootNs either way.
func (m *SimMember) slotBootable(slot int) (version uint32, ok bool) {
	s := m.slots[slot]
	if len(s.img) == 0 || !s.ok {
		return 0, false
	}
	return m.cfg.memo.version(s.img, m.cfg.Key)
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
func (m *SimMember) Stats() (st mgmt.Stats, err error) {
	// Filled field by field: a composite literal would build the whole
	// mgmt.Stats in a temporary and copy it out.
	m.statsReads++
	st.Running = m.running && !m.wedged && !(m.lateWedged && m.statsReads > 1)
	st.ActiveSlot = m.activeSlot
	st.Boots = m.boots
	st.GoldenFallbacks = m.fallbacks
	return st, nil
}

// Wedged reports whether the member is currently hung (for tests).
func (m *SimMember) Wedged() bool {
	return m.wedged || (m.lateWedged && m.statsReads > 1)
}

// ActiveSlot returns the member's active slot (for tests/invariants).
func (m *SimMember) ActiveSlot() int { return m.activeSlot }

// ActiveVersion re-verifies the active slot and returns the AppVersion of
// the image in it — ground truth read from the slot's bytes as they are
// now (through the fleet's content-compared memo), not the version
// remembered at boot. ok is false when the slot fails verification.
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
// modules' telemetry. It refills dst's slices in place, so folding a
// fleet through one reused snapshot allocates nothing per member.
func (m *SimMember) Telemetry(dst *telemetry.Snapshot) error {
	// Filled field by field, like Stats, so no whole snapshot or histogram
	// is built in a temporary and copied out.
	dst.Counters = append(dst.Counters[:0],
		telemetry.CounterSnap{Name: "ota_boots", Value: m.boots},
		telemetry.CounterSnap{Name: "ota_fallbacks", Value: m.fallbacks},
		telemetry.CounterSnap{Name: "ota_pushes", Value: m.pushes},
		telemetry.CounterSnap{Name: "ota_retries", Value: m.retries},
	)
	dst.Gauges = dst.Gauges[:0]
	dst.TraceSeen, dst.TraceSampled = 0, 0
	if len(dst.Histograms) != 1 {
		dst.Histograms = append(dst.Histograms[:0], telemetry.HistogramSnap{})
	}
	h := &dst.Histograms[0]
	h.Name, h.Count, h.Sum = "ota_member_cost_ns", 1, m.costNs
	h.Min, h.Max, h.Mean = m.costNs, m.costNs, float64(m.costNs)
	h.Buckets = append(h.Buckets[:0],
		telemetry.BucketSnap{UpperBound: uint64(netsim.Millisecond)},
		telemetry.BucketSnap{UpperBound: uint64(10 * netsim.Millisecond)},
		telemetry.BucketSnap{UpperBound: uint64(100 * netsim.Millisecond)},
		telemetry.BucketSnap{Overflow: true},
	)
	switch {
	case m.costNs <= uint64(netsim.Millisecond):
		h.Buckets[0].Count = 1
	case m.costNs <= uint64(10*netsim.Millisecond):
		h.Buckets[1].Count = 1
	case m.costNs <= uint64(100*netsim.Millisecond):
		h.Buckets[2].Count = 1
	default:
		h.Buckets[3].Count = 1
	}
	return nil
}

// BuildSimFleet constructs n members named sim-000000… with goodImage
// running in startSlot, each with its own injector derived from parent
// (lane = member index). Deterministic for a fixed parent seed. The
// members, their slots and their names are each carved from one array,
// every member embeds its injector and points at one copy of cfg and one
// verified-image memo, so the build allocates nothing per member. The
// build's own verification of goodImage seeds the memo.
func BuildSimFleet(n int, parent *faults.Injector, cfg SimMemberConfig, slots, startSlot int, goodImage []byte) []FleetMember {
	shared := &simShared{SimMemberConfig: cfg}
	version, _ := shared.memo.version(goodImage, cfg.Key)
	slots = max(slots, 2)
	sims := make([]SimMember, n)
	slotArr := make([]simSlot, n*slots)
	var names strings.Builder
	names.Grow(n * len("sim-000000"))
	var name [24]byte
	ms := make([]FleetMember, n)
	for i := range sims {
		// names.String() views the builder's buffer without copying, so
		// each name is a substring of one backing array.
		off := names.Len()
		names.Write(appendSimName(name[:0], i))
		sims[i].init(names.String()[off:], parent.Derive(uint64(i)), shared,
			slotArr[i*slots:(i+1)*slots:(i+1)*slots], startSlot, goodImage, version)
		ms[i] = &sims[i]
	}
	return ms
}

// appendSimName appends fmt.Sprintf("sim-%06d", i) to b without
// allocating.
func appendSimName(b []byte, i int) []byte {
	b = append(b, "sim-"...)
	for d := 100_000; d > 1 && i < d; d /= 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(i), 10)
}
