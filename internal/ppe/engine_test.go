package ppe

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"flexsfp/internal/netsim"
	"flexsfp/internal/packet"
	"flexsfp/internal/runner"
)

const clock156 = 156_250_000

func passProgram() *Program {
	return &Program{
		Name:        "pass",
		ParseLayers: []packet.LayerType{packet.LayerTypeEthernet},
		Stages:      1,
		Handler:     HandlerFunc(func(ctx *Ctx) Verdict { return VerdictPass }),
	}
}

func newTestEngine(t *testing.T, sim *netsim.Simulator, out func(Verdict, *Ctx)) *Engine {
	t.Helper()
	e := NewEngine(sim, clock156, 64, out)
	if err := e.SetProgram(passProgram()); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestProgramValidate(t *testing.T) {
	cases := []struct {
		name string
		prog Program
		want error
	}{
		{"no-name", Program{Stages: 1}, ErrNoName},
		{"no-stages", Program{Name: "x"}, ErrNoStages},
		{"bad-table", Program{Name: "x", Stages: 1,
			Tables: []TableSpec{{Name: "", KeyBits: 8, ValueBits: 8, Size: 1}}}, ErrBadTable},
		{"huge-ternary", Program{Name: "x", Stages: 1,
			Tables: []TableSpec{{Name: "t", Kind: TableTernary, KeyBits: 8, ValueBits: 8, Size: 100000}}}, ErrBadTable},
		{"bad-action", Program{Name: "x", Stages: 1,
			Actions: []ActionSpec{{Kind: ActionRewrite}}}, ErrBadAction},
		{"bad-register", Program{Name: "x", Stages: 1,
			Registers: []RegisterSpec{{Name: "r", Bits: 0}}}, ErrBadRegister},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.prog.Validate(); !errors.Is(err, c.want) {
				t.Errorf("err = %v, want %v", err, c.want)
			}
		})
	}
	ok := Program{
		Name: "good", Stages: 2,
		ParseLayers: []packet.LayerType{packet.LayerTypeEthernet, packet.LayerTypeIPv4},
		Tables:      []TableSpec{{Name: "t", KeyBits: 32, ValueBits: 32, Size: 100}},
		Actions:     []ActionSpec{{Kind: ActionChecksum}, {Kind: ActionRewrite, Bits: 32}},
		Registers:   []RegisterSpec{{Name: "r", Bits: 64}},
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}
}

func TestPipelineDepth(t *testing.T) {
	p := Program{
		Name:        "x",
		ParseLayers: []packet.LayerType{packet.LayerTypeEthernet, packet.LayerTypeIPv4},
		Stages:      2,
	}
	// 34 header bytes = 272 bits → 5 words at 64 b; +2×2 stages +1 = 10.
	if d := p.PipelineDepth(64); d != 10 {
		t.Errorf("depth(64) = %d, want 10", d)
	}
	// 512-bit datapath: 1 word + 4 + 1 = 6.
	if d := p.PipelineDepth(512); d != 6 {
		t.Errorf("depth(512) = %d, want 6", d)
	}
}

func TestEngineCapacityArithmetic(t *testing.T) {
	sim := netsim.New(1)
	e := newTestEngine(t, sim, nil)
	// 64-byte frame at 64-bit datapath: 8 words + 1 bubble = 9 cycles.
	if c := e.ServiceCycles(64); c != 9 {
		t.Errorf("ServiceCycles(64) = %d, want 9", c)
	}
	// Capacity ≈ 156.25e6/9 = 17.36 Mpps > 14.88 Mpps line rate: the
	// one-way NAT sustains 10G minimum-size traffic (§5.1).
	if pps := e.CapacityPPS(64); pps < 14.88e6 {
		t.Errorf("capacity %.2f Mpps below 10G line rate", pps/1e6)
	}
	// ...but below double line rate: a Two-Way-Core at 156.25 MHz cannot
	// absorb both directions (§4.1 "Processing Load").
	if pps := e.CapacityPPS(64); pps >= 2*14.88e6 {
		t.Errorf("capacity %.2f Mpps unexpectedly sustains two-way", pps/1e6)
	}
	// At 1518 B the capacity still covers line rate (812.7 kpps on wire).
	if pps := e.CapacityPPS(1518); pps < 812700 {
		t.Errorf("capacity at 1518B = %.0f pps, below line rate", pps)
	}
}

func TestEngineDoubleClockSustainsTwoWay(t *testing.T) {
	sim := netsim.New(1)
	e := NewEngine(sim, 2*clock156, 64, nil)
	if err := e.SetProgram(passProgram()); err != nil {
		t.Fatal(err)
	}
	if pps := e.CapacityPPS(64); pps < 2*14.88e6 {
		t.Errorf("312.5 MHz capacity %.2f Mpps below two-way line rate", pps/1e6)
	}
}

func TestEngineWiderDatapathSustains100G(t *testing.T) {
	// §5.3: scaling to 100G via a 512-bit datapath and higher clock.
	sim := netsim.New(1)
	e := NewEngine(sim, 400_000_000, 512, nil)
	if err := e.SetProgram(passProgram()); err != nil {
		t.Fatal(err)
	}
	// 100G line rate at 64B = 148.8 Mpps.
	if pps := e.CapacityPPS(64); pps < 148.8e6 {
		t.Errorf("512b@400MHz capacity %.1f Mpps below 100G line rate", pps/1e6)
	}
}

func TestEngineVerdictDelivery(t *testing.T) {
	sim := netsim.New(1)
	var verdicts []Verdict
	var at netsim.Time
	e := newTestEngine(t, sim, func(v Verdict, ctx *Ctx) {
		verdicts = append(verdicts, v)
		at = sim.Now()
	})
	frame := make([]byte, 64)
	if !e.Submit(frame, DirEdgeToOptical) {
		t.Fatal("Submit rejected")
	}
	sim.Run()
	if len(verdicts) != 1 || verdicts[0] != VerdictPass {
		t.Fatalf("verdicts = %v", verdicts)
	}
	if at != netsim.Time(e.Latency(64)) {
		t.Errorf("verdict at %v, want %v", at, e.Latency(64))
	}
	st := e.Stats()
	if st.In != 1 || st.Pass != 1 || st.InBytes != 64 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEngineVerdictCounting(t *testing.T) {
	sim := netsim.New(1)
	seq := []Verdict{VerdictDrop, VerdictTx, VerdictRedirect, VerdictToCPU, VerdictPass}
	i := 0
	e := NewEngine(sim, clock156, 64, nil)
	prog := passProgram()
	prog.Handler = HandlerFunc(func(ctx *Ctx) Verdict {
		v := seq[i%len(seq)]
		i++
		return v
	})
	if err := e.SetProgram(prog); err != nil {
		t.Fatal(err)
	}
	for range seq {
		e.Submit(make([]byte, 100), DirOpticalToEdge)
	}
	sim.Run()
	st := e.Stats()
	if st.Drop != 1 || st.Tx != 1 || st.Redirect != 1 || st.ToCPU != 1 || st.Pass != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEngineSaturationDropsExcess(t *testing.T) {
	// Offer 2× capacity of min-size frames with a bounded queue: about
	// half must be queue-dropped — the Two-Way-Core overload case.
	sim := netsim.New(1)
	delivered := 0
	e := NewEngine(sim, clock156, 64, func(v Verdict, ctx *Ctx) { delivered++ })
	if err := e.SetProgram(passProgram()); err != nil {
		t.Fatal(err)
	}
	e.QueueLimit = 16
	// Capacity is 17.36 Mpps; offer ~34.7 Mpps for 1 ms: interval 28.8 ns.
	n := 0
	var offer func()
	offer = func() {
		e.Submit(make([]byte, 64), DirEdgeToOptical)
		n++
		if n < 34000 {
			sim.ScheduleDetached(29, offer)
		}
	}
	sim.ScheduleDetached(29, offer)
	sim.Run()
	st := e.Stats()
	accepted := float64(st.In)
	offered := float64(n)
	ratio := accepted / offered
	if math.Abs(ratio-0.5) > 0.05 {
		t.Errorf("accepted %.0f%% of offered at 2x overload, want ≈50%%", ratio*100)
	}
	if st.QueueDrop == 0 {
		t.Error("no queue drops at 2x overload")
	}
	if delivered != int(st.In) {
		t.Errorf("delivered %d != accepted %d", delivered, st.In)
	}
}

func TestEngineSustainsLineRateNoDrops(t *testing.T) {
	// Offer exactly 10G line rate (67.2 ns per min frame) for 1 ms with a
	// small queue: nothing may drop.
	sim := netsim.New(1)
	e := NewEngine(sim, clock156, 64, nil)
	if err := e.SetProgram(passProgram()); err != nil {
		t.Fatal(err)
	}
	e.QueueLimit = 4
	n := 0
	var offer func()
	offer = func() {
		e.Submit(make([]byte, 64), DirEdgeToOptical)
		n++
		if n < 14880 {
			sim.ScheduleDetached(68, offer) // 67.2 ns rounded up: slightly under line rate
		}
	}
	sim.ScheduleDetached(68, offer)
	sim.Run()
	if st := e.Stats(); st.QueueDrop != 0 {
		t.Errorf("dropped %d frames at line rate", st.QueueDrop)
	}
}

func TestEngineLatencyOrdering(t *testing.T) {
	// Latency grows with frame size and includes pipeline depth.
	sim := netsim.New(1)
	e := newTestEngine(t, sim, nil)
	if e.Latency(64) >= e.Latency(1518) {
		t.Error("latency not monotone in size")
	}
	// 64B: 9 service + depth cycles at 6.4 ns.
	depth := passProgram().PipelineDepth(64)
	wantCycles := int64(9 + depth)
	want := netsim.Duration((wantCycles*6400 + 999) / 1000)
	if got := e.Latency(64); got != want {
		t.Errorf("Latency(64) = %v, want %v", got, want)
	}
}

func TestEngineUtilization(t *testing.T) {
	sim := netsim.New(1)
	e := newTestEngine(t, sim, nil)
	// One 64-byte frame = 9 cycles = 57.6 ns busy; run until 115.2 ns →
	// 50% utilization.
	e.Submit(make([]byte, 64), DirEdgeToOptical)
	sim.RunUntil(netsim.Time(115))
	u := e.Utilization()
	if math.Abs(u-0.5) > 0.02 {
		t.Errorf("utilization = %.3f, want ≈0.5", u)
	}
}

func TestEngineReprogram(t *testing.T) {
	sim := netsim.New(1)
	var got []Verdict
	e := NewEngine(sim, clock156, 64, func(v Verdict, ctx *Ctx) { got = append(got, v) })
	if err := e.SetProgram(passProgram()); err != nil {
		t.Fatal(err)
	}
	e.Submit(make([]byte, 64), DirEdgeToOptical)
	sim.Run()
	drop := passProgram()
	drop.Name = "drop-all"
	drop.Handler = HandlerFunc(func(ctx *Ctx) Verdict { return VerdictDrop })
	if err := e.SetProgram(drop); err != nil {
		t.Fatal(err)
	}
	e.Submit(make([]byte, 64), DirEdgeToOptical)
	sim.Run()
	if len(got) != 2 || got[0] != VerdictPass || got[1] != VerdictDrop {
		t.Errorf("verdicts = %v", got)
	}
}

func TestEngineRejectsHandlerlessProgram(t *testing.T) {
	sim := netsim.New(1)
	e := NewEngine(sim, clock156, 64, nil)
	p := passProgram()
	p.Handler = nil
	if err := e.SetProgram(p); err == nil {
		t.Error("handlerless program accepted")
	}
}

// Property: after the simulation drains, every accepted frame got exactly
// one verdict — In == Pass+Drop+Tx+Redirect+ToCPU — for any random offer
// pattern and queue limit.
func TestEngineVerdictConservationProperty(t *testing.T) {
	f := func(seed int64, limit uint8, burst uint8) bool {
		sim := netsim.New(seed)
		e := NewEngine(sim, clock156, 64, nil)
		prog := passProgram()
		i := 0
		prog.Handler = HandlerFunc(func(ctx *Ctx) Verdict {
			i++
			return Verdict(i % 5)
		})
		if err := e.SetProgram(prog); err != nil {
			return false
		}
		e.QueueLimit = int(limit % 32)
		n := int(burst)%200 + 1
		for k := 0; k < n; k++ {
			size := 64 + sim.Rand().Intn(1400)
			sim.ScheduleDetached(netsim.Duration(sim.Rand().Intn(10000)), func() {
				e.Submit(make([]byte, size), DirEdgeToOptical)
			})
		}
		sim.Run()
		st := e.Stats()
		verdicts := st.Pass + st.Drop + st.Tx + st.Redirect + st.ToCPU
		return st.In == verdicts && st.In+st.QueueDrop == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{Rand: runner.NewRand(14)}); err != nil {
		t.Error(err)
	}
}

// Regression: queue slots must be released when a frame's input occupancy
// ends, not when its verdict emerges a pipeline-depth later. A deep
// pipeline with the old verdict-time accounting overstated queue depth
// and queue-dropped bursty arrivals the input buffer actually had room
// for.
func TestEngineQueueReleasedAtOccupancyEnd(t *testing.T) {
	sim := netsim.New(1)
	deep := passProgram()
	deep.Stages = 20 // depth 43 cycles ≈ 275 ns — far beyond one service time
	e := NewEngine(sim, clock156, 64, nil)
	if err := e.SetProgram(deep); err != nil {
		t.Fatal(err)
	}
	e.QueueLimit = 3

	// t=0: burst of 4 frames. Frame 0 enters service immediately; frames
	// 1-3 queue (depth 3 = at the limit). Service time is 9 cycles =
	// 57.6 ns, so frame 1's occupancy ends at 115.2 ns, while its verdict
	// only emerges at ≈390 ns.
	for i := 0; i < 4; i++ {
		if !e.Submit(make([]byte, 64), DirEdgeToOptical) {
			t.Fatalf("burst frame %d dropped", i)
		}
	}
	// t=120 ns: frame 1 has fully entered the pipeline, so only frames
	// 2-3 still hold queue slots. The arrival must be accepted; the old
	// accounting still counted 3 queued (waiting for frame 1's verdict)
	// and dropped it.
	ok := false
	sim.ScheduleAt(120, func() {
		ok = e.Submit(make([]byte, 64), DirEdgeToOptical)
	})
	sim.Run()
	if !ok {
		t.Error("spurious QueueDrop: queue slot not released at occupancy end")
	}
	st := e.Stats()
	if st.QueueDrop != 0 {
		t.Errorf("QueueDrop = %d, want 0", st.QueueDrop)
	}
	if st.In != 5 {
		t.Errorf("In = %d, want 5", st.In)
	}
	verdicts := st.Pass + st.Drop + st.Tx + st.Redirect + st.ToCPU
	if verdicts != st.In {
		t.Errorf("verdicts %d != accepted %d", verdicts, st.In)
	}
}

// The queue must still fill and drop when arrivals genuinely outpace the
// input: same burst, but the probe arrives while all slots are held.
func TestEngineQueueStillDropsWhenFull(t *testing.T) {
	sim := netsim.New(1)
	e := newTestEngine(t, sim, nil)
	e.QueueLimit = 2
	for i := 0; i < 3; i++ {
		e.Submit(make([]byte, 64), DirEdgeToOptical)
	}
	// Immediately offer a fourth: frames 1-2 hold both slots until 115.2
	// and 172.8 ns; at t=0 the queue is full.
	if e.Submit(make([]byte, 64), DirEdgeToOptical) {
		t.Error("accepted into a full queue")
	}
	if st := e.Stats(); st.QueueDrop != 1 {
		t.Errorf("QueueDrop = %d, want 1", st.QueueDrop)
	}
	sim.Run()
}

// TestSetProgramRefusesShallowerUnderLoad pins the verdict queue's
// precondition at the API: a replacement program with a shallower
// pipeline would let later verdicts overtake the frames in flight, so it
// is refused until they have drained, and accepted after.
func TestSetProgramRefusesShallowerUnderLoad(t *testing.T) {
	sim := netsim.New(1)
	var order []byte
	e := NewEngine(sim, clock156, 64, func(v Verdict, ctx *Ctx) { order = append(order, ctx.Data[0]) })
	deep := passProgram()
	deep.Stages = 8
	if err := e.SetProgram(deep); err != nil {
		t.Fatal(err)
	}
	for i := byte(0); i < 3; i++ {
		e.Submit([]byte{i, 0, 0, 0}, DirEdgeToOptical)
	}
	if err := e.SetProgram(passProgram()); err == nil {
		t.Fatal("shallower program accepted with frames in flight")
	}
	if err := e.SetProgram(deep); err != nil {
		t.Fatalf("same-depth program refused: %v", err)
	}
	sim.Run()
	if err := e.SetProgram(passProgram()); err != nil {
		t.Fatalf("shallower program refused on an idle engine: %v", err)
	}
	e.Submit([]byte{3, 0, 0, 0}, DirEdgeToOptical)
	sim.Run()
	if string(order) != "\x00\x01\x02\x03" {
		t.Errorf("verdicts in order %v, want 0 1 2 3", order)
	}
}
