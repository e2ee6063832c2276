package ppe

import (
	"fmt"

	"flexsfp/internal/netsim"
	"flexsfp/internal/telemetry"
)

// Engine executes a compiled Program with cycle accounting: a streaming
// pipeline consumes one datapath word per clock, so a frame of L bytes
// occupies ceil(L / (width/8)) + 1 cycles at the input (the +1 models the
// inter-packet realignment bubble), and the verdict emerges a pipeline-
// depth later. Throughput saturates exactly where the paper's arithmetic
// says it must: 64-bit × 156.25 MHz sustains 10 Gb/s one way, and a
// Two-Way-Core needs double clock or width (§4.1, §5.3).
type Engine struct {
	sim          *netsim.Simulator
	clockHz      int64
	datapathBits int

	prog       *Program
	depth      int   // pipeline depth in cycles
	progCycles int64 // per-packet soft-core occupancy (0 = fully pipelined)

	// QueueLimit bounds frames waiting for the pipeline input; 0 means
	// unbounded. Full-queue arrivals are dropped (counted).
	QueueLimit int

	out func(v Verdict, ctx *Ctx)

	busyUntilPs int64
	busyPs      int64 // accumulated busy picoseconds (for utilization)
	period      int64 // cached clock period in picoseconds

	// marks holds one kernel mark per frame waiting for the pipeline input,
	// at the instant its occupancy ends and its queue slot frees (FIFO:
	// occupancy ends never decrease). A slot's release changes nothing but
	// the queue depth, which only Submit reads, so it costs no event: Submit
	// drops the marks that have passed, and the rest is the depth.
	marks netsim.MarkFIFO

	// verdicts holds the frames in the pipeline, in verdict order: a
	// frame's verdict time is its occupancy end plus the pipeline depth,
	// and neither decreases (SetProgram refuses a shallower pipeline
	// while frames are in flight). However deep the input queue, one
	// heap entry.
	verdicts *netsim.Queue

	// freeComp recycles per-frame completion records (the pooled Ctx and
	// its queued verdict). Intrusive list: the engine runs on the sim
	// thread, so no locking.
	freeComp *completion

	// tel, when non-nil, receives zero-alloc hot-path records (counters,
	// latency/queue histograms, trace hops). See SetTelemetry.
	tel *Telemetry

	stats EngineStats
}

// completion is the preallocated per-frame record, the entry of the
// frame's verdict in the engine's verdict queue: it embeds the pooled Ctx
// and runs the verdict when the frame's pipeline traversal completes. The
// record returns to the engine's free list after the verdict callback, so
// the Ctx must not be retained past that callback.
type completion struct {
	slot netsim.Slot
	e    *Engine
	ctx  Ctx
	next *completion
}

// Complete implements netsim.Completer: the frame emerges from the
// pipeline, the handler runs, and the verdict is delivered.
func (c *completion) Complete() {
	e := c.e
	v := e.prog.Handler.HandlePacket(&c.ctx)
	switch v {
	case VerdictPass:
		e.stats.Pass++
	case VerdictDrop:
		e.stats.Drop++
	case VerdictTx:
		e.stats.Tx++
	case VerdictRedirect:
		e.stats.Redirect++
	case VerdictToCPU:
		e.stats.ToCPU++
	}
	if t := e.tel; t != nil {
		now := uint64(e.sim.Now())
		if v >= 0 && int(v) < len(t.Verdicts) {
			t.Verdicts[v].Inc()
		}
		t.LatencyNs.Observe(now - c.ctx.TimestampNs)
		if t.Tracer != nil {
			t.Tracer.Hop(c.ctx.TraceID, telemetry.StageVerdict, now, len(c.ctx.Data), uint8(v))
		}
	}
	if e.out != nil {
		e.out(v, &c.ctx)
	}
	c.ctx = Ctx{} // drop the frame reference so pooling doesn't pin buffers
	c.next = e.freeComp
	e.freeComp = c
}

// EngineStats counts engine activity.
type EngineStats struct {
	In        uint64 // frames accepted
	InBytes   uint64
	QueueDrop uint64 // frames dropped at a full input queue
	Pass      uint64
	Drop      uint64 // verdict drops
	Tx        uint64
	Redirect  uint64
	ToCPU     uint64
}

// NewEngine builds an engine clocked at clockHz with the given datapath
// width, delivering verdicts to out.
func NewEngine(sim *netsim.Simulator, clockHz int64, datapathBits int, out func(Verdict, *Ctx)) *Engine {
	if clockHz <= 0 {
		panic("ppe: clock must be positive")
	}
	if datapathBits < 8 {
		panic("ppe: datapath narrower than one byte")
	}
	return &Engine{
		sim:          sim,
		clockHz:      clockHz,
		datapathBits: datapathBits,
		out:          out,
		period:       (1_000_000_000_000 + clockHz - 1) / clockHz,
		verdicts:     netsim.NewQueue(sim),
	}
}

// SetProgram loads (or replaces, on reconfiguration) the program. A
// replacement with a shallower pipeline is refused while frames are in
// flight: their verdicts would overtake the ones ahead of them.
func (e *Engine) SetProgram(p *Program) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.Handler == nil {
		return fmt.Errorf("ppe: program %q has no handler", p.Name)
	}
	depth := p.PipelineDepth(e.datapathBits)
	if depth < e.depth && e.busyUntilPs+int64(e.depth)*e.period > int64(e.sim.Now())*1000 {
		return fmt.Errorf("ppe: program %q shortens the pipeline under frames in flight", p.Name)
	}
	e.prog = p
	e.depth = depth
	e.progCycles = int64(p.ProgCycles)
	return nil
}

// Program returns the loaded program (nil before SetProgram).
func (e *Engine) Program() *Program { return e.prog }

// ClockHz returns the engine clock.
func (e *Engine) ClockHz() int64 { return e.clockHz }

// DatapathBits returns the datapath width.
func (e *Engine) DatapathBits() int { return e.datapathBits }

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() EngineStats { return e.stats }

// cyclePs returns the clock period in picoseconds (cached at
// construction; the clock never changes after NewEngine).
func (e *Engine) cyclePs() int64 { return e.period }

// ServiceCycles returns the input occupancy of a frame of n bytes: the
// header-streaming occupancy (one datapath word per clock plus the
// realignment bubble), or the program's soft-core execution time when the
// loaded program is instruction-bound (Program.ProgCycles) — whichever
// dominates. For fully pipelined programs this is the pre-existing
// streaming formula unchanged.
func (e *Engine) ServiceCycles(n int) int64 {
	wordBytes := e.datapathBits / 8
	c := int64((n+wordBytes-1)/wordBytes) + 1
	if c < e.progCycles {
		c = e.progCycles
	}
	return c
}

// CapacityPPS returns the maximum sustainable packet rate for frames of n
// bytes.
func (e *Engine) CapacityPPS(n int) float64 {
	return float64(e.clockHz) / float64(e.ServiceCycles(n))
}

// Latency returns the processing latency (pipeline depth + service) for a
// frame of n bytes, excluding queueing.
func (e *Engine) Latency(n int) netsim.Duration {
	cycles := e.ServiceCycles(n) + int64(e.depth)
	return netsim.Duration((cycles*e.cyclePs() + 999) / 1000)
}

// Utilization returns the fraction of time the pipeline input was busy
// since simulation start.
func (e *Engine) Utilization() float64 {
	nowPs := int64(e.sim.Now()) * 1000
	if nowPs == 0 {
		return 0
	}
	busy := e.busyPs
	if e.busyUntilPs > nowPs {
		busy -= e.busyUntilPs - nowPs // don't count future occupancy
	}
	return float64(busy) / float64(nowPs)
}

// Submit offers a frame to the pipeline. It returns false if the input
// queue is full: the frame was not taken and still belongs to the caller,
// which drops it. Otherwise the engine owns the data slice until the
// verdict callback fires, and the callback owns ctx.Data; the *Ctx itself
// is pooled and must not be retained past that callback.
//
// Submission is allocation-free in steady state: occupancy accounting,
// queue admission, and a push of the frame's pooled completion onto the
// engine's verdict queue — the frame's one event, which waits behind the
// verdicts ahead of it and holds a heap entry only once they have fired.
func (e *Engine) Submit(data []byte, dir Direction) bool {
	if e.prog == nil {
		panic("ppe: Submit before SetProgram")
	}
	now := e.sim.Now()
	nowPs := int64(now) * 1000
	startPs := e.busyUntilPs
	if startPs < nowPs {
		startPs = nowPs
	}
	queued := e.marks.Pending(e.sim)
	if e.QueueLimit > 0 && startPs > nowPs && queued >= e.QueueLimit {
		e.stats.QueueDrop++
		if e.tel != nil {
			e.tel.QueueDrops.Inc()
		}
		return false
	}
	servicePs := e.ServiceCycles(len(data)) * e.period
	e.busyUntilPs = startPs + servicePs
	e.busyPs += servicePs
	if startPs > nowPs {
		// The frame waits for the pipeline input until its own occupancy
		// ends; its queue slot frees then, not at verdict time. Counting
		// the extra pipeline-depth cycles would overstate queue depth and
		// queue-drop bursty arrivals that the real input buffer absorbs.
		e.marks.Push(e.sim.MarkAt(netsim.Time((e.busyUntilPs + 999) / 1000)))
		queued++
	}
	e.stats.In++
	e.stats.InBytes += uint64(len(data))

	c := e.freeComp
	if c != nil {
		e.freeComp = c.next
		c.next = nil
	} else {
		c = &completion{e: e}
	}
	c.ctx = Ctx{Data: data, Dir: dir, TimestampNs: uint64(now)}
	if t := e.tel; t != nil {
		t.FramesIn.Inc()
		t.BytesIn.Add(uint64(len(data)))
		t.QueueDepth.Observe(uint64(queued))
		if t.Tracer != nil {
			id := t.Tracer.Current()
			c.ctx.TraceID = id
			t.Tracer.Hop(id, telemetry.StageSubmit, uint64(now), len(data), uint8(dir))
		}
	}
	donePs := e.busyUntilPs + int64(e.depth)*e.period
	e.verdicts.Push(netsim.Time((donePs+999)/1000), &c.slot, c)
	return true
}
