package ppe

import "flexsfp/internal/telemetry"

// Telemetry is the optional set of hot-path instruments an Engine records
// into. All fields must be non-nil except Tracer; NewTelemetry builds a
// fully-populated set. Every record the engine makes into these is
// zero-allocation and lock-free, so an instrumented engine keeps the
// datapath's alloc/op pinned at zero (see telemetry_test.go).
type Telemetry struct {
	FramesIn   *telemetry.Counter
	BytesIn    *telemetry.Counter
	QueueDrops *telemetry.Counter
	// Verdicts counts delivered verdicts, indexed by Verdict.
	Verdicts [VerdictToCPU + 1]*telemetry.Counter
	// LatencyNs observes per-frame pipeline latency (queueing + service +
	// pipeline depth) in nanoseconds.
	LatencyNs *telemetry.Histogram
	// QueueDepth observes the input-queue depth seen by each accepted
	// frame.
	QueueDepth *telemetry.Histogram
	// Tracer, when non-nil, records Submit and Verdict hops for sampled
	// frames (the frame's trace ID rides in Ctx.TraceID).
	Tracer *telemetry.Tracer
}

// NewTelemetry registers the engine's instruments under the "ppe." prefix
// and adopts reg's tracer (if any). One Telemetry per registry: names are
// claimed exactly once.
func NewTelemetry(reg *telemetry.Registry) *Telemetry {
	t := &Telemetry{
		FramesIn:   reg.Counter("ppe.frames_in"),
		BytesIn:    reg.Counter("ppe.bytes_in"),
		QueueDrops: reg.Counter("ppe.queue_drops"),
		// 64 ns .. ~2 ms in powers of two: spans a bare pipeline traversal
		// through a deeply queued burst.
		LatencyNs:  reg.Histogram("ppe.latency_ns", telemetry.ExpBuckets(64, 2, 16)),
		QueueDepth: reg.Histogram("ppe.queue_depth", telemetry.LinearBuckets(0, 4, 16)),
		Tracer:     reg.Tracer(),
	}
	for v := VerdictPass; v <= VerdictToCPU; v++ {
		t.Verdicts[v] = reg.Counter("ppe.verdict." + v.String())
	}
	return t
}

// SetTelemetry attaches (or detaches, with nil) the engine's instruments.
// Wiring-time only; the datapath reads the pointer unsynchronized.
func (e *Engine) SetTelemetry(t *Telemetry) { e.tel = t }
