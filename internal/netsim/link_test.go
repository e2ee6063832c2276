package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"flexsfp/internal/runner"
	"flexsfp/internal/telemetry"
)

const tenGig = 10_000_000_000

// serializationTime is how long one n-byte frame occupies an idle
// zero-propagation link: the instant it is delivered.
func serializationTime(n int) Time {
	s := New(1)
	var at Time
	l := NewLink(s, tenGig, 0, func([]byte) { at = s.Now() })
	l.Send(make([]byte, n))
	s.Run()
	return at
}

func TestSerializationTime64B(t *testing.T) {
	// 64B frame + 20B preamble/IFG = 672 bits @ 10 Gb/s = 67.2 ns → 68 ns (ceil).
	if got := serializationTime(64); got != 68 {
		t.Errorf("serialization of 64 B = %d ns, want 68", got)
	}
	// 1518B + 20B = 12304 bits = 1230.4 ns → 1231.
	if got := serializationTime(1518); got != 1231 {
		t.Errorf("serialization of 1518 B = %d ns, want 1231", got)
	}
}

func TestLinkDelivery(t *testing.T) {
	s := New(1)
	var gotAt Time
	var gotLen int
	l := NewLink(s, tenGig, 100, func(data []byte) {
		gotAt = s.Now()
		gotLen = len(data)
	})
	l.Send(make([]byte, 64))
	s.Run()
	// serialization 68 ns + prop 100 ns.
	if gotAt != 168 {
		t.Errorf("delivered at %v, want 168", gotAt)
	}
	if gotLen != 64 {
		t.Errorf("delivered %d bytes, want 64", gotLen)
	}
	st := l.Stats()
	if st.TxFrames != 1 || st.TxBytes != 64 {
		t.Errorf("stats = %+v, want 1 frame / 64 bytes", st)
	}
}

func TestLinkBackToBackSerialization(t *testing.T) {
	s := New(1)
	var times []Time
	l := NewLink(s, tenGig, 0, func(data []byte) { times = append(times, s.Now()) })
	for i := 0; i < 3; i++ {
		l.Send(make([]byte, 64))
	}
	s.Run()
	if len(times) != 3 {
		t.Fatalf("delivered %d frames, want 3", len(times))
	}
	// Frames serialize back to back at exactly 67.2 ns spacing;
	// delivery events round up to whole ns: 68, 135, 202.
	want := []Time{68, 135, 202}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("frame %d delivered at %v, want %v", i, times[i], want[i])
		}
	}
}

// TestLinkQueueLimitDrops pins the transmit queue's admission: a frame
// counts as queued from Send until the frame ahead of it has finished
// serializing, not until that frame is delivered a propagation delay
// later, so after the transmitter has drained a burst the queue is empty
// again although the burst is still on the wire.
func TestLinkQueueLimitDrops(t *testing.T) {
	for _, tc := range []struct {
		name      string
		prop      Duration
		limit     int
		size      int
		burst     int // frames sent at t=0
		later     int // frames sent at 1 µs
		wantSent  int
		wantDrops uint64
	}{
		// One in flight + two queued = 3 accepted.
		{"prop0", 0, 2, 1500, 10, 0, 3, 7},
		// One in flight + four queued; by 1 µs the transmitter has been
		// idle since 336 ns, so the three later frames all go through.
		{"prop5us", 5 * Microsecond, 4, 64, 8, 3, 8, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(1)
			delivered := 0
			l := NewLink(s, tenGig, tc.prop, func(data []byte) { delivered++ })
			l.QueueLimit = tc.limit
			sent := 0
			send := func(n int) {
				for i := 0; i < n; i++ {
					if l.Send(make([]byte, tc.size)) {
						sent++
					}
				}
			}
			send(tc.burst)
			s.RunUntil(Time(Microsecond))
			send(tc.later)
			s.Run()
			if sent != tc.wantSent {
				t.Errorf("accepted %d frames, want %d", sent, tc.wantSent)
			}
			if delivered != tc.wantSent {
				t.Errorf("delivered %d frames, want %d", delivered, tc.wantSent)
			}
			if got := l.Stats().Drops; got != tc.wantDrops {
				t.Errorf("drops = %d, want %d", got, tc.wantDrops)
			}
		})
	}
}

// TestLinkPendingCountsInFlight pins Pending's meaning for a link's
// frames: every frame in flight is an event waiting to fire, however the
// kernel holds them.
func TestLinkPendingCountsInFlight(t *testing.T) {
	const n = 100
	s := New(1)
	delivered := 0
	l := NewLink(s, tenGig, 5*Microsecond, func([]byte) { delivered++ })
	for i := 0; i < n; i++ {
		l.Send(make([]byte, 64))
	}
	if got := s.Pending(); got != n {
		t.Errorf("Pending() = %d with %d frames in flight, want %d", got, n, n)
	}
	s.RunUntil(Time(5 * Microsecond).Add(68 * 10))
	if got := s.Pending(); got != n-delivered || delivered == 0 || delivered == n {
		t.Errorf("Pending() = %d after %d of %d deliveries, want %d", got, delivered, n, n-delivered)
	}
	s.Run()
	if got := s.Pending(); got != 0 {
		t.Errorf("Pending() = %d after Run, want 0", got)
	}
}

// TestQueuesHoldOneHeapEntry pins the point of Queue: 1 000 frames in
// flight on one link, and a 1 000-message portal batch on its far shard,
// each hold one event-heap entry while Pending still counts them all.
func TestQueuesHoldOneHeapEntry(t *testing.T) {
	const n = 1000
	s := New(1)
	l := NewLink(s, tenGig, 5*Microsecond, func([]byte) {})
	for i := 0; i < n; i++ {
		l.Send(make([]byte, 64))
	}
	if len(s.events) != 1 || s.Pending() != n {
		t.Errorf("link: %d heap entries and %d pending for %d frames in flight, want 1 and %d", len(s.events), s.Pending(), n, n)
	}
	s.Run()

	sh := NewSharded(1, 2)
	dst := sh.Shard(1)
	arrived := 0
	heap, pending := 0, 0
	p := sh.Connect(0, 1, 500, func([]byte) {
		if arrived == 0 {
			heap, pending = len(dst.events), dst.Pending()
		}
		arrived++
	})
	for i := 0; i < n; i++ {
		p.Send(nil)
	}
	sh.Run()
	if arrived != n || heap != 1 || pending != n-1 {
		t.Errorf("portal: at the first of %d arrivals, %d heap entries and %d pending, want 1 and %d (%d arrived)", n, heap, pending, n-1, arrived)
	}
}

func TestLinkLineRate(t *testing.T) {
	// Offer exactly line rate of minimum-size frames for 1 ms and verify
	// throughput ≈ 14.88 Mpps, the 10GbE worst case.
	s := New(1)
	meter := NewRateMeter()
	l := NewLink(s, tenGig, 0, func(data []byte) { meter.Observe(len(data)) })
	interval := Duration(6720) // 100 frames × 67.2 ns wire time per burst
	frames := 0
	var burst func()
	burst = func() {
		for i := 0; i < 100; i++ {
			l.Send(make([]byte, 64))
		}
		frames += 100
		if frames < 14880 {
			s.ScheduleDetached(interval, burst)
		}
	}
	s.ScheduleDetached(interval, burst)
	s.Run()
	pps := float64(meter.Frames) / s.Now().Seconds()
	if math.Abs(pps-14.88e6)/14.88e6 > 0.01 {
		t.Errorf("line-rate pps = %.0f, want ≈14.88e6", pps)
	}
}

// utilization is the fraction of [since, now] the transmitter was busy,
// from the Stats deltas against base, the snapshot taken at since.
func utilization(l *Link, since Time, base LinkStats) float64 {
	elapsed := l.sim.Now().Sub(since)
	frames := l.stats.TxFrames - base.TxFrames
	bytes := l.stats.TxBytes - base.TxBytes
	bits := float64(bytes+frames*uint64(l.OverheadBytes)) * 8
	return bits / (float64(l.BitsPerSec) * elapsed.Seconds())
}

func TestLinkUtilization(t *testing.T) {
	s := New(1)
	l := NewLink(s, tenGig, 0, func(data []byte) {})
	start := s.Now()
	base := l.Stats()
	// Send frames covering exactly half the window.
	l.Send(make([]byte, 1230)) // 1250B incl. overhead = 1 µs on the wire
	s.RunUntil(Time(2 * Microsecond))
	u := utilization(l, start, base)
	if math.Abs(u-0.5) > 0.01 {
		t.Errorf("utilization = %.3f, want 0.5", u)
	}
}

// TestLinkUtilizationWindow: a measurement window opened after traffic
// has already been carried counts only the Stats deltas inside it, so a
// late window is not charged for earlier traffic.
func TestLinkUtilizationWindow(t *testing.T) {
	s := New(1)
	l := NewLink(s, tenGig, 0, func(data []byte) {})
	// Phase 1: 4 µs of solid traffic before the window opens.
	for i := 0; i < 4; i++ {
		l.Send(make([]byte, 1230)) // 1 µs each on the wire
	}
	s.RunUntil(Time(4 * Microsecond))
	// Phase 2: open a 2 µs window carrying 1 µs of traffic → 50%.
	since := s.Now()
	base := l.Stats()
	l.Send(make([]byte, 1230))
	s.RunUntil(Time(6 * Microsecond))
	u := utilization(l, since, base)
	if math.Abs(u-0.5) > 0.01 {
		t.Errorf("windowed utilization = %.3f, want 0.5", u)
	}
	// A zero-value baseline reproduces the old cumulative behavior on a
	// window from time zero.
	if full := utilization(l, 0, LinkStats{}); math.Abs(full-5.0/6.0) > 0.01 {
		t.Errorf("full-run utilization = %.3f, want %.3f", full, 5.0/6.0)
	}
}

// TestLinkZeroPropTxBeforeRx pins the order inside a frame's one
// completion: Send schedules a single event per frame, and when it fires
// the frame is counted as transmitted (stats, tx trace hop) before it is
// delivered, so a deliver callback that reads the counters sees its own
// frame — at Prop == 0 as on any other link.
func TestLinkZeroPropTxBeforeRx(t *testing.T) {
	s := New(1)
	var l *Link
	delivered := 0
	l = NewLink(s, tenGig, 0, func(data []byte) {
		delivered++
		// The frame was counted as transmitted before it was delivered.
		if got := l.Stats().TxFrames; got != uint64(delivered) {
			t.Fatalf("delivery %d saw TxFrames=%d; tx must be counted before rx", delivered, got)
		}
	})
	for i := 0; i < 3; i++ {
		l.Send(make([]byte, 64))
	}
	s.Run()
	if delivered != 3 {
		t.Fatalf("delivered %d frames, want 3", delivered)
	}
}

// TestLinkZeroPropPoolReuse exercises frame-pool recycling at Prop == 0:
// delivery recycles the linkFrame, and a Send issued from inside the
// deliver callback must get a cleanly reset record (no stale data or trace
// ID) even though the recycle happened in the same simulated instant.
func TestLinkZeroPropPoolReuse(t *testing.T) {
	s := New(1)
	var l *Link
	var got [][]byte
	l = NewLink(s, tenGig, 0, func(data []byte) {
		got = append(got, append([]byte(nil), data...))
		if len(got) < 4 {
			next := make([]byte, 64)
			next[0] = byte(len(got))
			l.Send(next)
		}
	})
	first := make([]byte, 64)
	l.Send(first)
	s.Run()
	if len(got) != 4 {
		t.Fatalf("delivered %d frames, want 4", len(got))
	}
	for i, b := range got {
		if want := byte(i); b[0] != want || len(b) != 64 {
			t.Errorf("frame %d: first byte %d len %d, want %d/64", i, b[0], len(b), want)
		}
	}
	if l.Stats().TxFrames != 4 {
		t.Errorf("TxFrames = %d, want 4", l.Stats().TxFrames)
	}
}

func TestRateMeter(t *testing.T) {
	s := New(1)
	m := NewRateMeter()
	s.ScheduleDetached(Duration(Second), func() {
		m.Observe(500)
		m.Observe(1500)
	})
	s.Run()
	if m.Frames != 2 || m.Bytes != 2000 {
		t.Errorf("meter frames=%d bytes=%d, want 2/2000", m.Frames, m.Bytes)
	}
	if m.MinSize != 500 || m.MaxSize != 1500 {
		t.Errorf("min/max = %d/%d, want 500/1500", m.MinSize, m.MaxSize)
	}
}

func TestPipeIndependentDirections(t *testing.T) {
	s := New(1)
	var ab, ba int
	atob := NewLink(s, tenGig, 10, func(data []byte) { ab++ })
	btoa := NewLink(s, tenGig, 10, func(data []byte) { ba++ })
	atob.Send(make([]byte, 64))
	atob.Send(make([]byte, 64))
	btoa.Send(make([]byte, 64))
	s.Run()
	if ab != 2 || ba != 1 {
		t.Errorf("ab=%d ba=%d, want 2/1", ab, ba)
	}
}

// Property: delivery time is monotone in frame size and never before
// serialization+propagation of a minimum frame.
func TestDeliveryTimeProperty(t *testing.T) {
	f := func(size uint16, prop uint16) bool {
		n := int(size)%9000 + 1
		s := New(3)
		var at Time
		l := NewLink(s, tenGig, Duration(prop), func(data []byte) { at = s.Now() })
		l.Send(make([]byte, n))
		s.Run()
		// At 10 Gb/s a byte plus its share of overhead takes 800 ps.
		want := Duration(((n+20)*800+999)/1000) + Duration(prop)
		return at == Time(want)
	}
	if err := quick.Check(f, &quick.Config{Rand: runner.NewRand(5)}); err != nil {
		t.Error(err)
	}
}

func TestLinkDownDropsAndFlaps(t *testing.T) {
	s := New(1)
	delivered := 0
	l := NewLink(s, tenGig, 0, func(data []byte) { delivered++ })
	if !l.Send(make([]byte, 64)) {
		t.Fatal("send on an up link refused")
	}
	l.SetUp(false)
	l.SetUp(false) // redundant down: no extra flap
	if l.Send(make([]byte, 64)) {
		t.Error("send on a down link accepted")
	}
	l.SetUp(true)
	if !l.Send(make([]byte, 64)) {
		t.Error("send refused after link recovery")
	}
	s.Run()
	st := l.Stats()
	if delivered != 2 || st.TxFrames != 2 || st.DownDrops != 1 || st.Flaps != 1 {
		t.Errorf("delivered=%d stats=%+v", delivered, st)
	}
}

// TestLinkOneEventPerFrame pins the link's event budget: each frame costs
// exactly one kernel event on the sending shard — its delivery, or on a
// cross-shard link its portal hand-off at tx-done, plus one portal
// arrival on the far shard — while the stats, the queue-depth histogram
// and each frame's tx-then-rx trace hops stay what a separate tx-done
// tick used to record.
func TestLinkOneEventPerFrame(t *testing.T) {
	sizes := []int{64, 1518, 64, 300}
	for _, tc := range []struct {
		name  string
		prop  Duration
		cross bool
	}{
		{"prop0", 0, false},
		{"prop500", 500, false},
		{"connectlink", 500, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sh := NewSharded(1, 2)
			src, dst := sh.Shard(0), sh.Shard(1)
			var rx []Time
			rxSim := src
			if tc.cross {
				rxSim = dst
			}
			deliver := func([]byte) { rx = append(rx, rxSim.Now()) }
			var l *Link
			if tc.cross {
				l = sh.ConnectLink(0, 1, tenGig, tc.prop, deliver)
			} else {
				l = NewLink(src, tenGig, tc.prop, deliver)
			}
			tr := telemetry.NewTracer(1, 64)
			depth := telemetry.New().Histogram("depth", telemetry.LinearBuckets(0, 1, 8))
			l.SetTelemetry(tr, depth)

			// Two bursts, 3 µs apart: each queues three frames behind its
			// first. At 10 Gb/s a byte plus its share of overhead is 800 ps.
			var ids []uint64
			var txDone []Time
			var bytes uint64
			for burst := 0; burst < 2; burst++ {
				sh.RunUntil(Time(burst * 3000))
				ps := int64(burst*3000) * 1000
				for _, n := range sizes {
					id, _ := tr.Sample()
					tr.SetCurrent(id)
					if !l.Send(make([]byte, n)) {
						t.Fatal("send refused")
					}
					tr.SetCurrent(0)
					ps += int64(n+20) * 800
					ids = append(ids, id)
					txDone = append(txDone, Time((ps+999)/1000))
					bytes += uint64(n)
				}
			}
			sh.Run()

			frames := uint64(len(ids))
			if got := src.Fired(); got != frames {
				t.Errorf("sending shard fired %d events for %d frames, want one each", got, frames)
			}
			wantDst := uint64(0)
			if tc.cross {
				wantDst = frames // the portal arrivals
			}
			if got := dst.Fired(); got != wantDst {
				t.Errorf("receiving shard fired %d events, want %d", got, wantDst)
			}
			if st := l.Stats(); st.TxFrames != frames || st.TxBytes != bytes {
				t.Errorf("stats = %+v, want %d frames / %d bytes", st, frames, bytes)
			}
			if depth.Count() != frames || depth.Sum() != 12 || depth.Max() != 3 {
				t.Errorf("depth histogram count/sum/max = %d/%d/%d, want %d/12/3",
					depth.Count(), depth.Sum(), depth.Max(), frames)
			}
			for i, at := range rx {
				if want := txDone[i].Add(tc.prop); at != want {
					t.Errorf("frame %d delivered at %d, want %d", i, at, want)
				}
			}
			if len(rx) != len(ids) {
				t.Fatalf("delivered %d frames, want %d", len(rx), len(ids))
			}

			hops := map[uint64][]telemetry.TraceEvent{}
			for _, ev := range tr.Events() {
				hops[ev.ID] = append(hops[ev.ID], ev)
			}
			for i, id := range ids {
				h := hops[id]
				want := 2
				if tc.cross {
					want = 1 // the rx side belongs to the far shard's callback
				}
				if len(h) != want || h[0].Stage != telemetry.StageLinkTx || h[0].TimeNs != uint64(txDone[i]) {
					t.Fatalf("frame %d hops = %+v, want tx at %d first", i, h, txDone[i])
				}
				if want == 2 && (h[1].Stage != telemetry.StageLinkRx || h[1].TimeNs != uint64(txDone[i].Add(tc.prop))) {
					t.Fatalf("frame %d hops = %+v, want rx at %d second", i, h, txDone[i].Add(tc.prop))
				}
			}
		})
	}
}
