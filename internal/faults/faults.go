// Package faults is the deterministic fault-injection subsystem: a seeded
// Injector that perturbs the layers the paper's §4.2/§5.3 robustness
// claims depend on — the mgmt transport (connection drops, stalls, byte
// corruption), netsim links (flaps), the SPI flash (power-cut corruption
// mid-program), and signed bitstreams (CRC/HMAC/freshness tampering).
//
// All randomness comes from one runner.Source embedded in the Injector,
// seeded explicitly (typically with runner.TrialSeed derivatives), so any
// fault schedule is reproducible bit-for-bit. An Injector is not safe for
// concurrent use: give each module/simulator its own.
//
// runner.Source is the repo's one generator: 8 bytes seeded by
// assignment. The Injector draws from it through float64 and intn, which
// return what rand.Rand's Float64 and Intn would over the same source,
// draw for draw, without a rand.Rand in between. So an Injector is one
// flat value, and a fleet can Derive one lane per member (a handful of
// draws each) into the member itself, allocating nothing.
package faults

import (
	"errors"
	"math"

	"flexsfp/internal/bitstream"
	"flexsfp/internal/flash"
	"flexsfp/internal/netsim"
	"flexsfp/internal/runner"
)

// Transport-level fault errors.
var (
	ErrConnDropped = errors.New("faults: connection dropped")
	ErrStalled     = errors.New("faults: request stalled past deadline")
)

// Rates are per-event fault probabilities in [0, 1].
type Rates struct {
	ConnDrop float64 // mgmt request: connection drops (request may or may not have landed)
	Stall    float64 // mgmt request: peer stalls past the deadline
	Corrupt  float64 // mgmt response: one byte flipped in flight
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
		ConnDrop: s(r.ConnDrop),
		Stall:    s(r.Stall),
		Corrupt:  s(r.Corrupt),
	}
}

// Stats counts the faults actually injected.
type Stats struct {
	ConnDrops   uint64
	Stalls      uint64
	Corruptions uint64
	PowerCuts   uint64
	LinkFlaps   uint64
	Tampers     uint64
}

// Total sums all injected faults.
func (s Stats) Total() uint64 {
	return s.ConnDrops + s.Stalls + s.Corruptions + s.PowerCuts + s.LinkFlaps + s.Tampers
}

// Injector draws fault decisions from a private seeded stream.
type Injector struct {
	rates Rates
	stats Stats

	// seed is the root the injector was built from; Derive mixes lanes
	// from it, never from src, so deriving leaves src's stream alone.
	seed int64
	src  runner.Source
}

// New builds an injector whose draws are runner.NewRand(seed)'s stream.
func New(seed int64, rates Rates) *Injector {
	return &Injector{rates: rates, seed: seed, src: runner.Source(seed)}
}

// Derive returns an independent injector for one worker lane, by value:
// *New(runner.TrialSeed(seed, lane), rates). This is how concurrent fleet
// workers get goroutine-safe fault streams: the parent is NOT safe for
// concurrent use, but Derive is a pure function of (seed, lane) —
// callable from any number of goroutines at once — and two Derives of the
// same lane replay the same fault schedule. The value is meant to be
// embedded where it is used, as daemon.SimMember does.
func (in *Injector) Derive(lane uint64) Injector {
	s := runner.TrialSeed(in.seed, int(lane))
	return Injector{rates: in.rates, seed: s, src: runner.Source(s)}
}

// float64 is rand.New(&in.src).Float64(), draw for draw: a value in
// [0, 1) from one Int63, resampled in the rare case it rounds up to 1.
func (in *Injector) float64() float64 {
	for {
		if f := float64(in.src.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// intn is rand.New(&in.src).Intn(n), draw for draw, for 0 < n < 1<<31
// (every caller draws a bit, a byte or a mgmt frame offset): Int31n's
// mask of one draw when n is a power of two, else its rejection of draws
// above the largest multiple of n.
func (in *Injector) intn(n int) int {
	if n <= 0 || n > math.MaxInt32 {
		panic("faults: intn argument out of range")
	}
	n32 := int32(n)
	if n32&(n32-1) == 0 {
		return int(in.int31() & (n32 - 1))
	}
	limit := int32((1 << 31) - 1 - (1<<31)%uint32(n32))
	v := in.int31()
	for v > limit {
		v = in.int31()
	}
	return int(v % n32)
}

// int31 is rand.Rand.Int31: the top 31 bits of one Int63.
func (in *Injector) int31() int32 { return int32(in.src.Int63() >> 32) }

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
	return in.float64() < p
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
	if err := dev.CorruptRange(addr, n, func() byte { return byte(in.intn(256)) }); err != nil {
		return err
	}
	in.stats.PowerCuts++
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
		bad[len(bad)-bitstream.CRCSize-1] ^= 1 << uint(in.intn(8))
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
