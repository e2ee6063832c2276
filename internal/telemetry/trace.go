package telemetry

import (
	"fmt"
	"sync/atomic"
)

// Stage identifies one hop of a frame's path through the model.
type Stage uint8

// Trace stages, in datapath order.
const (
	StageGen     Stage = iota + 1 // traffic generator emitted the frame
	StageLinkTx                   // frame fully serialized onto a link
	StageLinkRx                   // frame delivered off a link
	StageRx                       // module ingress (arbiter)
	StageSubmit                   // frame entered the PPE pipeline input
	StageVerdict                  // PPE verdict delivered (Aux = verdict)
	StageTx                       // module egress
)

var stageNames = [...]string{
	StageGen:     "gen",
	StageLinkTx:  "link-tx",
	StageLinkRx:  "link-rx",
	StageRx:      "rx",
	StageSubmit:  "submit",
	StageVerdict: "verdict",
	StageTx:      "tx",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) && stageNames[s] != "" {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// TraceEvent is one recorded hop of a sampled frame.
type TraceEvent struct {
	ID     uint64 `json:"id"`      // sampled-frame identity; hops share it
	TimeNs uint64 `json:"time_ns"` // simulated timestamp
	Stage  Stage  `json:"stage"`
	Len    uint32 `json:"len"` // frame length in bytes
	Aux    uint8  `json:"aux"` // stage-specific (verdict code, port, direction)
}

// traceSlot is one ring entry. Every field is atomic so concurrent
// recorders and dumpers are race-free. The slot's seq word doubles as a
// per-slot seqlock: a published event stores seq<<1; a writer claims the
// slot with CAS(seq<<1|1), stores the payload words, then publishes
// seq<<1. Readers accept a slot only when they see the same even seq
// before and after reading the payload. A writer that loses the CAS (two
// writers lapped onto one slot after a ring wrap) drops its event rather
// than spinning — the ring is overwriting that history anyway — so the
// record path stays wait-free and no torn payload can ever be published.
type traceSlot struct {
	seq  atomic.Uint64 // seq<<1 published, seq<<1|1 mid-write; 0 = never written
	id   atomic.Uint64
	time atomic.Uint64
	meta atomic.Uint64 // stage<<48 | aux<<40 | len
}

// Tracer is the sampled packet-trace ring: a 1-in-N sampler assigning
// trace IDs, an ambient "current frame" register threaded through the
// synchronous segments of the datapath (sim-thread only), and a fixed
// power-of-two ring of hop events overwritten oldest-first.
//
// Hop and Sample are hot-path safe: zero allocations, no locks. Events
// carries the slow-path dump.
type Tracer struct {
	every uint64 // sample 1 in every
	mask  uint64
	seen  atomic.Uint64 // frames offered to the sampler
	ids   atomic.Uint64 // trace IDs assigned
	cur   atomic.Uint64 // ambient current trace ID (0 = unsampled frame)
	wpos  atomic.Uint64 // next event index (1-based sequence = wpos)
	ring  []traceSlot
}

// NewTracer builds a tracer sampling one in every frames into a ring of
// at least size events (rounded up to a power of two). every <= 1 traces
// every frame.
func NewTracer(every int, size int) *Tracer {
	if every < 1 {
		every = 1
	}
	if size < 16 {
		size = 16
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &Tracer{every: uint64(every), mask: uint64(n - 1), ring: make([]traceSlot, n)}
}

// Seen returns how many frames were offered to the sampler.
func (t *Tracer) Seen() uint64 { return t.seen.Load() }

// Sampled returns how many frames were selected for tracing.
func (t *Tracer) Sampled() uint64 { return t.ids.Load() }

// Sample decides whether the next frame is traced, assigning its trace
// ID when it is. Zero allocations, no locks.
func (t *Tracer) Sample() (uint64, bool) {
	n := t.seen.Add(1)
	if n%t.every != 0 {
		return 0, false
	}
	return t.ids.Add(1), true
}

// SetCurrent installs the ambient trace ID for the synchronous call
// segment that follows (generator emit, link delivery, module rx). The
// datapath is single-threaded inside one simulator, so a plain register
// suffices semantically; it is atomic so dumps racing with a live sim
// stay race-clean.
func (t *Tracer) SetCurrent(id uint64) { t.cur.Store(id) }

// Current returns the ambient trace ID (0 when the in-flight frame is
// not sampled).
func (t *Tracer) Current() uint64 { return t.cur.Load() }

// Hop records one event for trace id. id == 0 (unsampled) is a no-op, so
// call sites stay branch-light. Zero allocations, no locks.
func (t *Tracer) Hop(id uint64, stage Stage, timeNs uint64, frameLen int, aux uint8) {
	if id == 0 {
		return
	}
	seq := t.wpos.Add(1)
	s := &t.ring[(seq-1)&t.mask]
	for {
		old := s.seq.Load()
		if old>>1 >= seq || old&1 == 1 {
			// A newer event owns (or owned) the slot, or an older writer is
			// mid-publish: drop ours. Only reachable when recorders lap the
			// ring, where this event was about to be overwritten regardless.
			return
		}
		if s.seq.CompareAndSwap(old, seq<<1|1) {
			break
		}
	}
	s.id.Store(id)
	s.time.Store(timeNs)
	s.meta.Store(uint64(stage)<<48 | uint64(aux)<<40 | uint64(uint32(frameLen)))
	s.seq.Store(seq << 1)
}

// Events returns the buffered hops, oldest first. It tolerates racing
// recorders: slots being overwritten mid-read are skipped. Slow path —
// allocates the result.
func (t *Tracer) Events() []TraceEvent {
	w := t.wpos.Load()
	n := uint64(len(t.ring))
	start := uint64(1)
	if w > n {
		start = w - n + 1
	}
	out := make([]TraceEvent, 0, w-start+1)
	for seq := start; seq <= w; seq++ {
		s := &t.ring[(seq-1)&t.mask]
		if s.seq.Load() != seq<<1 {
			continue // not yet published, dropped, or already overwritten
		}
		id := s.id.Load()
		time := s.time.Load()
		meta := s.meta.Load()
		if s.seq.Load() != seq<<1 {
			continue // overwritten while reading
		}
		out = append(out, TraceEvent{
			ID:     id,
			TimeNs: time,
			Stage:  Stage(meta >> 48),
			Len:    uint32(meta),
			Aux:    uint8(meta >> 40),
		})
	}
	return out
}
