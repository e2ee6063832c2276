// Package faults is the deterministic fault-injection subsystem: a seeded
// Injector that perturbs the layers the paper's §4.2/§5.3 robustness
// claims depend on — the mgmt transport (connection drops, stalls, byte
// corruption), in-band control frames (loss), netsim links (flaps), the
// SPI flash (power-cut corruption mid-program, retention bit-rot), and
// signed bitstreams (CRC/HMAC/freshness tampering).
//
// All randomness comes from one rand.Rand owned by the Injector, seeded
// explicitly (typically with runner.TrialSeed derivatives), so any fault
// schedule is reproducible bit-for-bit. An Injector is not safe for
// concurrent use: give each module/simulator its own.
//
// Two generators sit under that rand.Rand. New and NewFrom keep math/rand's
// own source, whose streams the experiment goldens pin. Derive — one lane
// per fleet member, a handful of draws each — uses laneSource, SplitMix64
// with 8 bytes of state seeded by assignment, because math/rand's source is
// 607 words (4.9 KB) that cost ≈10 µs to seed: at 100k members that was
// 85 % of the fleet's build time and 5.4 of its 6 KB per member. A lane's
// stream is a pure function of (root seed, lane) and differs from what
// New(runner.TrialSeed(seed, lane)) would draw.
package faults

import (
	"errors"
	"math/rand"
	"sync"

	"flexsfp/internal/bitstream"
	"flexsfp/internal/flash"
	"flexsfp/internal/netsim"
	"flexsfp/internal/runner"
)

// Transport-level fault errors.
var (
	ErrConnDropped = errors.New("faults: connection dropped")
	ErrStalled     = errors.New("faults: request stalled past deadline")
	ErrFrameLost   = errors.New("faults: control frame lost")
)

// Rates are per-event fault probabilities in [0, 1].
type Rates struct {
	ConnDrop  float64 // mgmt request: connection drops (request may or may not have landed)
	Stall     float64 // mgmt request: peer stalls past the deadline
	Corrupt   float64 // mgmt response: one byte flipped in flight
	FrameLoss float64 // in-band control frame silently lost
}

// Scaled returns the rates multiplied by f (clamped to [0, 1]).
func (r Rates) Scaled(f float64) Rates {
	s := func(p float64) float64 {
		p *= f
		if p < 0 {
			return 0
		}
		if p > 1 {
			return 1
		}
		return p
	}
	return Rates{
		ConnDrop:  s(r.ConnDrop),
		Stall:     s(r.Stall),
		Corrupt:   s(r.Corrupt),
		FrameLoss: s(r.FrameLoss),
	}
}

// Stats counts the faults actually injected.
type Stats struct {
	ConnDrops   uint64
	Stalls      uint64
	Corruptions uint64
	FrameLosses uint64
	PowerCuts   uint64
	BitRots     uint64
	LinkFlaps   uint64
	Tampers     uint64
}

// Total sums all injected faults.
func (s Stats) Total() uint64 {
	return s.ConnDrops + s.Stalls + s.Corruptions + s.FrameLosses +
		s.PowerCuts + s.BitRots + s.LinkFlaps + s.Tampers
}

// Injector draws fault decisions from a private seeded RNG.
type Injector struct {
	rng   *rand.Rand
	rates Rates
	stats Stats

	// seed is the root the injector was built from (New); seeded marks it
	// valid. Derive prefers this pure path so lane derivation never
	// touches the shared rng.
	seed     int64
	seeded   bool
	lazySeed sync.Once

	// lane backs rng on a Derive-built injector (rng points into it), so a
	// lane costs one Injector and one rand.Rand, nothing else.
	lane laneSource
}

// laneSource is SplitMix64 as a rand.Source64. Draw k of a source seeded
// with s is runner.TrialSeed(s, k): the lanes run on the repo-wide mixer,
// not a second algorithm.
type laneSource uint64

func (s *laneSource) Uint64() uint64 {
	v := runner.TrialSeed(int64(*s), 0)
	*s += 0x9E3779B97F4A7C15 // TrialSeed's per-trial increment
	return uint64(v)
}

func (s *laneSource) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *laneSource) Seed(seed int64) { *s = laneSource(seed) }

// New builds an injector with its own RNG.
func New(seed int64, rates Rates) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed)), rates: rates, seed: seed, seeded: true}
}

// NewFrom builds an injector drawing from an existing RNG — typically a
// simulator's (netsim.Simulator.Rand), tying the fault schedule to the
// run's root seed.
func NewFrom(rng *rand.Rand, rates Rates) *Injector {
	return &Injector{rng: rng, rates: rates}
}

// Derive returns an independent injector for one worker lane, seeded
// from the parent's root seed and the lane index through the repo-wide
// SplitMix64 mixer (runner.TrialSeed). This is how concurrent fleet
// workers get goroutine-safe fault streams: the parent's embedded
// *rand.Rand is NOT safe for concurrent use, but Derive on a New-built
// parent is a pure function of (seed, lane) — callable from any number
// of goroutines at once — and two Derives of the same lane replay the
// same fault schedule. The lane draws from a laneSource (see the package
// comment), so building it costs an assignment, not a 607-word seeding.
//
// Parents built with NewFrom have no root seed of their own; the first
// Derive draws one from the shared RNG (once, so later Derives stay
// pure). That first call must be serialized with the RNG's other users.
func (in *Injector) Derive(lane uint64) *Injector {
	in.lazySeed.Do(func() {
		if !in.seeded {
			in.seed = int64(in.rng.Uint64())
			in.seeded = true
		}
	})
	seed := runner.TrialSeed(in.seed, int(lane))
	d := &Injector{rates: in.rates, seed: seed, seeded: true, lane: laneSource(seed)}
	d.rng = rand.New(&d.lane)
	return d
}

// Rates returns the configured probabilities.
func (in *Injector) Rates() Rates { return in.rates }

// Stats returns a snapshot of the injected-fault counters.
func (in *Injector) Stats() Stats { return in.stats }

// Roll draws once and reports whether an event with probability p fires.
// Exported so scenario code can gate bespoke faults (e.g. a wedged-PPE
// health probe) on the same deterministic stream.
func (in *Injector) Roll(p float64) bool {
	if p <= 0 {
		return false
	}
	return in.rng.Float64() < p
}

// LoseFrame decides whether to drop one in-band control frame, counting
// it when lost. Wire it into a frame-delivery path:
//
//	if inj.LoseFrame() { return } // frame vanishes
func (in *Injector) LoseFrame() bool {
	if in.Roll(in.rates.FrameLoss) {
		in.stats.FrameLosses++
		return true
	}
	return false
}

// PowerCut simulates power loss mid-program: the first frac of the slot's
// bytes are left partially programmed (random bits cleared, as on real
// NOR). The slot will fail validation at the next boot.
func (in *Injector) PowerCut(dev *flash.Device, slot int, frac float64) error {
	addr, err := flash.SlotAddr(slot)
	if err != nil {
		return err
	}
	if frac <= 0 || frac > 1 {
		frac = 1
	}
	n := int(float64(flash.SlotSize) * frac)
	if err := dev.CorruptRange(addr, n, func() byte { return byte(in.rng.Intn(256)) }); err != nil {
		return err
	}
	in.stats.PowerCuts++
	return nil
}

// BitRot flips bits random bits across a slot, modeling charge loss in a
// worn part (§5.3). Unlike PowerCut it can set bits as well as clear them.
func (in *Injector) BitRot(dev *flash.Device, slot, bits int) error {
	addr, err := flash.SlotAddr(slot)
	if err != nil {
		return err
	}
	if err := dev.FlipBits(addr, flash.SlotSize, bits, in.rng.Intn); err != nil {
		return err
	}
	in.stats.BitRots++
	return nil
}

// FlapLink schedules a link flap: down at downAt, back up downFor later.
// Frames offered while down are dropped (LinkStats.DownDrops).
func (in *Injector) FlapLink(sim *netsim.Simulator, l *netsim.Link, downAt, downFor netsim.Duration) {
	in.stats.LinkFlaps++
	sim.ScheduleDetached(downAt, func() { l.SetUp(false) })
	sim.ScheduleDetached(downAt+downFor, func() { l.SetUp(true) })
}

// TamperMode selects how TamperSigned damages a signed bitstream.
type TamperMode int

// Tamper modes, each tripping a distinct verification layer.
const (
	// TamperCRC flips a payload byte and re-signs: the HMAC verifies but
	// the CRC-32 integrity trailer does not (bitstream.ErrBadCRC).
	TamperCRC TamperMode = iota
	// TamperTruncate drops the blob's tail: too short to carry its
	// declared payload (bitstream.ErrTooShort after MAC failure).
	TamperTruncate
	// TamperWrongKey re-signs with a different key: authentication fails
	// (bitstream.ErrBadMAC).
	TamperWrongKey
	// TamperStale rewinds AppVersion to 0 and re-signs: a valid image
	// that loses the freshness check (bitstream.ErrStaleVersion).
	TamperStale
)

// TamperSigned returns a damaged copy of a signed bitstream. key is the
// legitimate signing key (needed to re-sign for the modes whose fault
// must survive authentication). Returns the input unchanged if it cannot
// be decoded.
func (in *Injector) TamperSigned(signed, key []byte, mode TamperMode) []byte {
	in.stats.Tampers++
	switch mode {
	case TamperCRC:
		body, err := bitstream.Verify(signed, key)
		if err != nil {
			return signed
		}
		bad := append([]byte(nil), body...)
		// Flip a bit in the last payload byte: header fields stay sane,
		// so decoding reaches (and fails) the CRC check.
		bad[len(bad)-bitstream.CRCSize-1] ^= 1 << uint(in.rng.Intn(8))
		return bitstream.Sign(bad, key)
	case TamperTruncate:
		n := len(signed) / 2
		return append([]byte(nil), signed[:n]...)
	case TamperWrongKey:
		body, err := bitstream.Verify(signed, key)
		if err != nil {
			return signed
		}
		wrong := append(append([]byte(nil), key...), 0xEE)
		return bitstream.Sign(body, wrong)
	case TamperStale:
		body, err := bitstream.Verify(signed, key)
		if err != nil {
			return signed
		}
		bs, err := bitstream.Decode(body)
		if err != nil {
			return signed
		}
		bs.AppVersion = 0
		enc, err := bs.Encode()
		if err != nil {
			return signed
		}
		return bitstream.Sign(enc, key)
	default:
		return signed
	}
}
