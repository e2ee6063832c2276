package ppe

import (
	"fmt"
	"testing"

	"flexsfp/internal/netsim"
	"flexsfp/internal/runner"
	"flexsfp/internal/telemetry"
)

// refEngine is the engine as it was before queue slots became kernel
// marks: every queued frame schedules a real release event at the end of
// its input occupancy, and that event decrements the queue depth. It is
// the oracle Engine must match decision for decision.
type refEngine struct {
	sim        *netsim.Simulator
	prog       *Program
	depth      int
	progCycles int64
	queueLimit int
	period     int64
	out        func(Verdict, *Ctx)
	depthHist  *telemetry.Histogram

	busyUntilPs int64
	busyPs      int64
	queued      int
	release     func()
	stats       EngineStats
}

func newRefEngine(sim *netsim.Simulator, clockHz int64, prog *Program, depth, queueLimit int,
	out func(Verdict, *Ctx), depthHist *telemetry.Histogram) *refEngine {
	e := &refEngine{
		sim: sim, prog: prog, depth: depth, progCycles: int64(prog.ProgCycles), queueLimit: queueLimit,
		period: (1_000_000_000_000 + clockHz - 1) / clockHz, out: out, depthHist: depthHist,
	}
	e.release = func() { e.queued-- }
	return e
}

func (e *refEngine) serviceCycles(n int) int64 {
	c := int64((n+7)/8) + 1 // 64-bit datapath
	if c < e.progCycles {
		c = e.progCycles
	}
	return c
}

func (e *refEngine) Submit(data []byte, dir Direction) bool {
	now := e.sim.Now()
	nowPs := int64(now) * 1000
	startPs := e.busyUntilPs
	if startPs < nowPs {
		startPs = nowPs
	}
	if e.queueLimit > 0 && startPs > nowPs && e.queued >= e.queueLimit {
		e.stats.QueueDrop++
		return false
	}
	servicePs := e.serviceCycles(len(data)) * e.period
	e.busyUntilPs = startPs + servicePs
	e.busyPs += servicePs
	if startPs > nowPs {
		e.queued++
		e.sim.ScheduleAt(netsim.Time((e.busyUntilPs+999)/1000), e.release)
	}
	e.stats.In++
	e.stats.InBytes += uint64(len(data))
	e.depthHist.Observe(uint64(e.queued))
	ctx := &Ctx{Data: data, Dir: dir, TimestampNs: uint64(now)}
	donePs := e.busyUntilPs + int64(e.depth)*e.period
	e.sim.ScheduleAt(netsim.Time((donePs+999)/1000), func() {
		v := e.prog.Handler.HandlePacket(ctx)
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
		e.out(v, ctx)
	})
	return true
}

func (e *refEngine) Stats() EngineStats { return e.stats }

func (e *refEngine) Utilization() float64 {
	nowPs := int64(e.sim.Now()) * 1000
	if nowPs == 0 {
		return 0
	}
	busy := e.busyPs
	if e.busyUntilPs > nowPs {
		busy -= e.busyUntilPs - nowPs
	}
	return float64(busy) / float64(nowPs)
}

// engineCase is one generated oracle input: the engine's shape, up to
// three sources that each submit from their own scheduled events, an echo
// budget of frames resubmitted from verdict callbacks (at the verdict's
// own instant, which with depth 0 is the frame's slot release), and an
// optional driver that submits between RunUntil steps, outside any event.
type engineCase struct {
	clockHz    int64
	queueLimit int
	depth      int
	progCycles int
	sources    [][]caseArrival
	echoes     int
	driverStep netsim.Duration // 0 = no outside submissions
}

type caseArrival struct {
	gap  netsim.Duration
	size int
}

// caseBytes reads a byte stream, yielding zeros once it runs dry, so any
// fuzz input decodes to a case.
type caseBytes struct {
	b []byte
	i int
}

func (c *caseBytes) next() int {
	if c.i >= len(c.b) {
		return 0
	}
	c.i++
	return int(c.b[c.i-1])
}

func decodeEngineCase(data []byte) engineCase {
	r := &caseBytes{b: data}
	clocks := []int64{1_000_000_000, clock156, 250_000_000, 125_000_000}
	limits := []int{0, 1, 2, 3, 64}
	c := engineCase{
		clockHz:    clocks[r.next()%len(clocks)],
		queueLimit: limits[r.next()%len(limits)],
		depth:      r.next() % 44,
	}
	if pc := r.next(); pc%3 != 0 {
		c.progCycles = 1 + pc%30
	}
	c.echoes = r.next() % 16
	if d := r.next(); d%2 == 1 {
		c.driverStep = netsim.Duration(1 + d%97)
	}
	nsrc := 1 + r.next()%3
	for s := 0; s < nsrc; s++ {
		n := 1 + r.next()%48
		src := make([]caseArrival, n)
		for i := range src {
			// Mostly tiny gaps, so same-nanosecond arrivals and slot
			// releases collide often; now and then a long one lets the
			// queue drain.
			g := r.next()
			gap := netsim.Duration(g % 8)
			if g >= 224 {
				gap = netsim.Duration(g % 200)
			}
			hi, lo := r.next(), r.next()
			size := 1 + (hi<<8|lo)%1518
			if hi%4 == 0 {
				size = 64
			}
			src[i] = caseArrival{gap: gap, size: size}
		}
		c.sources = append(c.sources, src)
	}
	return c
}

// submitter is the surface the case driver runs against: Engine or
// refEngine.
type submitter interface {
	Submit(data []byte, dir Direction) bool
	Stats() EngineStats
	Utilization() float64
}

// engineRun is everything one side of the comparison observed.
type engineRun struct {
	log   []string // arrivals (admit/refuse, depth seen) and verdicts (time), in firing order
	stats EngineStats
	util  float64
}

// runEngineCase drives one case against the engine build returns.
func runEngineCase(c engineCase, build func(sim *netsim.Simulator, prog *Program, out func(Verdict, *Ctx), depth *telemetry.Histogram) submitter) engineRun {
	var run engineRun
	sim := netsim.New(1)
	depthHist := telemetry.New().Histogram("queue_depth", telemetry.LinearBuckets(0, 1, 8))
	prog := passProgram()
	prog.ProgCycles = c.progCycles
	prog.Handler = HandlerFunc(func(ctx *Ctx) Verdict { return Verdict(len(ctx.Data) % 5) })
	echoes := c.echoes
	var eng submitter
	submit := func(who string, size int) {
		before := depthHist.Sum()
		ok := eng.Submit(make([]byte, size), DirEdgeToOptical)
		entry := fmt.Sprintf("%s@%d size=%d refused", who, sim.Now(), size)
		if ok {
			entry = fmt.Sprintf("%s@%d size=%d admitted depth=%d", who, sim.Now(), size, depthHist.Sum()-before)
		}
		run.log = append(run.log, entry)
	}
	out := func(v Verdict, ctx *Ctx) {
		run.log = append(run.log, fmt.Sprintf("verdict %v@%d size=%d", v, sim.Now(), len(ctx.Data)))
		if echoes > 0 && v == VerdictTx {
			echoes--
			submit("echo", len(ctx.Data))
		}
	}
	eng = build(sim, prog, out, depthHist)
	for s, src := range c.sources {
		who := fmt.Sprintf("src%d", s)
		var i int
		var fire func()
		fire = func() {
			submit(who, src[i].size)
			if i++; i < len(src) {
				sim.ScheduleDetached(src[i].gap, fire)
			}
		}
		sim.ScheduleDetached(src[0].gap, fire)
	}
	if c.driverStep > 0 {
		for k := 0; k < 32; k++ {
			sim.RunUntil(sim.Now().Add(c.driverStep))
			submit("driver", 64+k)
		}
	}
	sim.Run()
	run.stats, run.util = eng.Stats(), eng.Utilization()
	return run
}

// checkEngineCase runs one case on Engine and on refEngine and reports
// the first divergence.
func checkEngineCase(t *testing.T, c engineCase) {
	t.Helper()
	got := runEngineCase(c, func(sim *netsim.Simulator, prog *Program, out func(Verdict, *Ctx), depth *telemetry.Histogram) submitter {
		e := NewEngine(sim, c.clockHz, 64, out)
		if err := e.SetProgram(prog); err != nil {
			t.Fatal(err)
		}
		e.depth = c.depth
		e.QueueLimit = c.queueLimit
		tel := NewTelemetry(telemetry.New())
		tel.QueueDepth = depth
		e.SetTelemetry(tel)
		return e
	})
	want := runEngineCase(c, func(sim *netsim.Simulator, prog *Program, out func(Verdict, *Ctx), depth *telemetry.Histogram) submitter {
		return newRefEngine(sim, c.clockHz, prog, c.depth, c.queueLimit, out, depth)
	})
	for i := 0; i < len(got.log) || i < len(want.log); i++ {
		var g, w string
		if i < len(got.log) {
			g = got.log[i]
		}
		if i < len(want.log) {
			w = want.log[i]
		}
		if g != w {
			t.Fatalf("case %+v\nentry %d: engine %q, oracle %q", c, i, g, w)
		}
	}
	if got.stats != want.stats {
		t.Fatalf("case %+v\nstats: engine %+v, oracle %+v", c, got.stats, want.stats)
	}
	if got.util != want.util {
		t.Fatalf("case %+v\nutilization: engine %v, oracle %v", c, got.util, want.util)
	}
}

// TestEngineMatchesRef pins the mark-based queue accounting to the
// event-released oracle over seeded random cases: every admit or refuse
// decision, every verdict time, every queue depth observed, the stats and
// the final utilization. Queue depth hinges on the exact place of each
// slot release among same-nanosecond arrivals, so a drain that ignores
// sequence numbers, a MarkAt that leaves its number to the verdict pushed
// onto the engine's queue after it, or a queued verdict that takes a
// fresh number when it reaches the event heap, makes this test fail. (A
// Passed that admits the
// frontier's own sequence number cannot show here — an engine mark is
// always followed by its verdict's number, so no mark ever equals the
// frontier — and netsim's TestMarkMatchesEvent catches it instead.)
func TestEngineMatchesRef(t *testing.T) {
	rng := runner.NewRand(33)
	buf := make([]byte, 512)
	for k := 0; k < 400; k++ {
		rng.Read(buf)
		checkEngineCase(t, decodeEngineCase(buf))
	}
}

// FuzzEngineVsRef is TestEngineMatchesRef under the fuzzer's mutator.
func FuzzEngineVsRef(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 3, 0, 2, 40})
	f.Add([]byte{1, 4, 43, 5, 7, 3, 1, 20})
	f.Add([]byte{0, 2, 0, 1, 15, 0, 2, 47, 0, 0, 64})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEngineCase(t, decodeEngineCase(data))
	})
}
