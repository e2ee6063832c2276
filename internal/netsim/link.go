package netsim

import "flexsfp/internal/telemetry"

// Link models a unidirectional serial channel: frames are serialized one at
// a time at the link's bit rate, then delivered after the propagation delay.
// It captures the two quantities that matter for line-rate reasoning:
// serialization time (frame bytes + per-frame overhead, e.g. Ethernet
// preamble and inter-frame gap) and store-and-forward latency.
//
// A Link is not safe for concurrent use; it lives inside a Simulator.
type Link struct {
	sim *Simulator

	// BitsPerSec is the raw signalling rate available to frames
	// (e.g. 10e9 for 10GBASE-R after 64b/66b decode).
	BitsPerSec int64

	// Prop is the propagation delay of the medium.
	Prop Duration

	// OverheadBytes is charged per frame in addition to the frame length
	// (Ethernet: 7 preamble + 1 SFD + 12 IFG = 20 bytes).
	OverheadBytes int

	// QueueLimit bounds the number of frames waiting for serialization;
	// 0 means unbounded. Frames arriving at a full queue are dropped.
	QueueLimit int

	deliver func(data []byte)

	// down is set while the link is administratively or physically down
	// (a flap); frames offered meanwhile are dropped and counted.
	down bool

	// busyUntilPs tracks transmitter occupancy in picoseconds so that
	// back-to-back minimum frames at 10 Gb/s (67.2 ns each) accumulate
	// without rounding drift; delivery events round up to whole ns.
	busyUntilPs int64

	// waits holds one mark per frame waiting for the transmitter: the
	// tx-done of the frame ahead of it, ordered by that frame's reserved
	// delivery (last, the latest accepted frame's). A frame stops counting
	// as queued when the frame ahead finishes serializing, not when that
	// frame is delivered a propagation delay later; only Send reads the
	// depth, so this costs no event.
	waits MarkFIFO
	last  Mark

	// deliveries holds the frames in flight, in tx-done order: one heap
	// entry however many there are.
	deliveries *Queue

	// free recycles in-flight frame records (see linkFrame). The link is
	// single-threaded inside its simulator, so an intrusive list suffices.
	free *linkFrame

	// tracer and depthHist are optional instruments (SetTelemetry): sampled
	// packet-trace hops at tx-done/delivery, and the transmit-queue depth
	// seen by each accepted frame. Both record zero-alloc and lock-free.
	tracer    *telemetry.Tracer
	depthHist *telemetry.Histogram

	// remote, when set (Sharded.ConnectLink), replaces local delivery: the
	// frame's propagation delay rides the portal to another shard, so its
	// one completion is scheduled at txDone, not txDone+Prop, and the rx
	// side fires on the destination shard.
	remote *Portal

	stats LinkStats
}

// linkFrame is the pooled record of one in-flight frame, the entry of
// its one completion in the link's delivery queue, so Send allocates
// nothing in steady state. The completion fires at delivery (tx-done +
// propagation), or at tx-done on a cross-shard link. Tx-done itself costs
// no event: nothing reads the counters or the trace hop in between, so
// Complete records both, stamping the hop with txDone.
type linkFrame struct {
	slot    Slot
	l       *Link
	data    []byte
	traceID uint64 // packet-trace identity captured at Send (0 = untraced)
	txDone  Time   // when the frame's last bit left the transmitter
	next    *linkFrame
}

// Complete implements Completer: the frame has left the transmitter and
// reached the far end (or the portal).
func (f *linkFrame) Complete() {
	l := f.l
	data := f.data
	id := f.traceID
	l.stats.TxFrames++
	l.stats.TxBytes += uint64(len(data))
	if l.tracer != nil {
		l.tracer.Hop(id, telemetry.StageLinkTx, uint64(f.txDone), len(data), 0)
	}
	f.data = nil
	f.traceID = 0
	f.next = l.free
	l.free = f
	if l.remote != nil {
		// Cross-shard link: the propagation delay rides the portal (it is
		// the lookahead), so this completion fired at tx-done and the rx
		// side — including any tracer hop — belongs to the destination
		// shard's deliver callback.
		l.remote.Send(data)
		return
	}
	if l.deliver == nil {
		return
	}
	if l.tracer != nil {
		// Delivery is the synchronous head of the downstream chain (module
		// rx → PPE submit), so the ambient register carries the trace ID
		// across it.
		l.tracer.Hop(id, telemetry.StageLinkRx, uint64(l.sim.Now()), len(data), 0)
		l.tracer.SetCurrent(id)
		l.deliver(data)
		l.tracer.SetCurrent(0)
		return
	}
	l.deliver(data)
}

// LinkStats counts traffic carried and dropped by a Link.
//
// TxFrames and TxBytes count a frame once it has been delivered (or handed
// to the portal of a cross-shard link), not at its tx-done instant: on a
// local link with Prop > 0 they trail the wire by the propagation delay
// while frames are in flight. No model code reads them mid-flight; the
// saving is one event per frame.
type LinkStats struct {
	TxFrames  uint64 // frames fully serialized onto the wire and delivered
	TxBytes   uint64 // frame bytes (excluding per-frame overhead)
	Drops     uint64 // frames dropped at a full queue
	DownDrops uint64 // frames dropped while the link was down
	Flaps     uint64 // up→down transitions
}

// NewLink creates a link inside sim delivering frames to deliver.
// The default per-frame overhead is the Ethernet preamble+IFG (20 bytes).
func NewLink(sim *Simulator, bitsPerSec int64, prop Duration, deliver func(data []byte)) *Link {
	if bitsPerSec <= 0 {
		panic("netsim: link rate must be positive")
	}
	return &Link{
		sim:           sim,
		BitsPerSec:    bitsPerSec,
		Prop:          prop,
		OverheadBytes: 20,
		deliver:       deliver,
		deliveries:    NewQueue(sim),
	}
}

// SetTelemetry attaches the link's optional instruments: trace hops for
// sampled frames and a histogram of transmit-queue depth. Either may be
// nil. Wiring-time only.
func (l *Link) SetTelemetry(tracer *telemetry.Tracer, depth *telemetry.Histogram) {
	l.tracer = tracer
	l.depthHist = depth
}

// Stats returns a snapshot of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

func (l *Link) serializationPs(n int) int64 {
	bits := int64(n+l.OverheadBytes) * 8
	return ceilDiv(bits*1_000_000_000_000, l.BitsPerSec)
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// SetUp raises or lowers the link. While down, Send drops every frame
// (counted in DownDrops). Lowering an already-down link is a no-op; each
// effective up→down transition counts one flap.
func (l *Link) SetUp(up bool) {
	if !up && !l.down {
		l.stats.Flaps++
	}
	l.down = !up
}

// Send enqueues data for transmission. It returns false if the link is
// down or the transmit queue is full: the frame was not taken and still
// belongs to the caller. Otherwise the link owns data until it hands it
// to the deliver callback, which owns it from then on.
func (l *Link) Send(data []byte) bool {
	if l.down {
		l.stats.DownDrops++
		return false
	}
	nowPs := int64(l.sim.Now()) * 1000
	startPs := l.busyUntilPs
	if startPs < nowPs {
		startPs = nowPs
	}
	queued := l.waits.Pending(l.sim)
	if l.QueueLimit > 0 && startPs > nowPs && queued >= l.QueueLimit {
		l.stats.Drops++
		return false
	}
	txDonePs := startPs + l.serializationPs(len(data))
	l.busyUntilPs = txDonePs
	if startPs > nowPs {
		l.waits.Push(l.last)
		queued++
	}
	txDone := Time(ceilDiv(txDonePs, 1000))
	f := l.free
	if f != nil {
		l.free = f.next
		f.next = nil
	} else {
		f = &linkFrame{l: l}
	}
	f.data = data
	f.txDone = txDone
	if l.tracer != nil {
		f.traceID = l.tracer.Current()
	}
	if l.depthHist != nil {
		l.depthHist.Observe(uint64(queued))
	}
	at := txDone.Add(l.Prop)
	if l.remote != nil {
		// Cross-shard: the completion hands the frame to the portal at
		// tx-done; the portal applies the propagation delay as it crosses
		// (Portal latency == Prop).
		at = txDone
	}
	l.deliveries.Push(at, &f.slot, f)
	l.last = Mark{at: txDone, seq: f.slot.seq}
	return true
}

// RateMeter accumulates frame and byte counts and the frame-size range;
// the caller divides the counts by its own measurement window.
type RateMeter struct {
	Frames  uint64
	Bytes   uint64
	MinSize int // -1 until the first frame
	MaxSize int
}

// NewRateMeter returns an empty meter.
func NewRateMeter() *RateMeter {
	return &RateMeter{MinSize: -1}
}

// Observe records a frame of n bytes.
func (m *RateMeter) Observe(n int) {
	m.Frames++
	m.Bytes += uint64(n)
	if m.MinSize < 0 || n < m.MinSize {
		m.MinSize = n
	}
	if n > m.MaxSize {
		m.MaxSize = n
	}
}
