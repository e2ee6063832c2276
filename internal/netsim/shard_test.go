package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// ringWorld builds a ring of `nodes` logical partitions over `shards`
// shards: node i forwards tokens to node (i+1)%nodes through a portal,
// holding each token for a node-local random delay drawn from the node's
// partition stream. It returns the per-node event logs after circulating
// three tokens for a fixed number of hops — the golden trace that must be
// byte-identical at every shard count.
func ringWorld(seed int64, shards, nodes, hops int) []string {
	sh := NewSharded(seed, shards)
	outs := make([]*Portal, nodes)
	logs := make([][]string, nodes)
	rngs := make([]*rand.Rand, nodes)
	for i := range rngs {
		rngs[i] = sh.Stream(i)
	}
	for i := 0; i < nodes; i++ {
		j := (i + 1) % nodes // the node this portal delivers to
		jj := j
		sim := sh.Shard(sh.ShardFor(jj))
		deliver := func(data []byte) {
			tok, hop := data[0], int(data[1])
			logs[jj] = append(logs[jj], fmt.Sprintf("n%d t%v tok%d hop%d", jj, sim.Now(), tok, hop))
			if hop >= hops {
				return
			}
			data[1]++
			hold := Duration(1 + rngs[jj].Intn(200))
			sim.ScheduleDetached(hold, func() { outs[jj].Send(data) })
		}
		outs[i] = sh.Connect(sh.ShardFor(i), sh.ShardFor(j), Duration(50+10*i), deliver)
	}
	for k := 0; k < 3; k++ {
		kk := k
		sim := sh.Shard(sh.ShardFor(kk))
		sim.ScheduleAt(Time(kk+1), func() {
			outs[kk].Send([]byte{byte(kk), 0})
		})
	}
	sh.Run()
	var all []string
	for _, l := range logs {
		all = append(all, l...)
	}
	return all
}

// TestShardedRingGoldenTrace is the determinism pin for the parallel
// core: the same seed must produce an identical event trace at every
// shard count, including the degenerate shards=1 case that runs the
// window loop serially.
func TestShardedRingGoldenTrace(t *testing.T) {
	const nodes, hops = 8, 40
	want := ringWorld(42, 1, nodes, hops)
	if len(want) == 0 {
		t.Fatal("reference run produced no events")
	}
	for _, shards := range []int{2, 4, 8} {
		got := ringWorld(42, shards, nodes, hops)
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d events, want %d", shards, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d diverges at event %d: got %q want %q", shards, i, got[i], want[i])
			}
		}
	}
	// And a different seed produces a different trace (the RNG streams are
	// actually live, not constant).
	other := ringWorld(43, 4, nodes, hops)
	same := len(other) == len(want)
	if same {
		for i := range want {
			if other[i] != want[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestShardedMergeOrderByPortalID pins the cross-shard tie-break: two
// messages arriving at the same destination shard at the same instant
// merge in portal-id (wiring) order, not send-call order.
func TestShardedMergeOrderByPortalID(t *testing.T) {
	sh := NewSharded(1, 3)
	var order []string
	pa := sh.Connect(2, 0, 100, func(data []byte) { order = append(order, "a") })
	pb := sh.Connect(1, 0, 100, func(data []byte) { order = append(order, "b") })
	// Send through the higher-id portal first; both arrive at t=100.
	pb.Send([]byte{1})
	pa.Send([]byte{2})
	sh.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("merge order = %v, want [a b] (portal-id order)", order)
	}
}

// TestShardedSpillOverflow pushes more messages through one portal in a
// single window than its SPSC ring holds; the overflow spills and must
// still deliver completely, in FIFO order.
func TestShardedSpillOverflow(t *testing.T) {
	const n = portalRingSize + 500
	sh := NewSharded(1, 2)
	next := 0
	p := sh.Connect(0, 1, 10, func(data []byte) {
		got := int(data[0])<<8 | int(data[1])
		if got != next {
			t.Fatalf("out-of-order delivery: got %d want %d", got, next)
		}
		next++
	})
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = []byte{byte(i >> 8), byte(i)}
	}
	sh.Shard(0).ScheduleAt(1, func() {
		for i := 0; i < n; i++ {
			p.Send(bufs[i])
		}
	})
	sh.Run()
	if next != n {
		t.Fatalf("delivered %d messages, want %d", next, n)
	}
	if p.sent != n {
		t.Fatalf("sent = %d, want %d", p.sent, n)
	}
}

// TestShardedRunUntilAdvancesClocks checks the bounded run: every shard
// clock lands exactly on the limit, events past the limit stay pending,
// and a later Run picks them up.
func TestShardedRunUntilAdvancesClocks(t *testing.T) {
	sh := NewSharded(1, 4)
	// Per-shard counters: windows execute in parallel, and shard-local
	// state must stay shard-local (the model's own rule).
	var fired [4]int
	for i := 0; i < 4; i++ {
		i := i
		sh.Shard(i).ScheduleAt(Time(100+i), func() { fired[i]++ })
		sh.Shard(i).ScheduleAt(Time(5000), func() { fired[i]++ })
	}
	total := func() int { return fired[0] + fired[1] + fired[2] + fired[3] }
	sh.RunUntil(103)
	if total() != 4 {
		t.Fatalf("fired %d events by t=103, want 4", total())
	}
	for i := 0; i < 4; i++ {
		if now := sh.Shard(i).Now(); now != 103 {
			t.Errorf("shard %d clock = %v, want 103", i, now)
		}
	}
	if sh.Now() != 103 {
		t.Errorf("frontier = %v, want 103", sh.Now())
	}
	sh.Run()
	if total() != 8 {
		t.Errorf("fired %d events after full run, want 8", total())
	}
}

// TestShardedRunUntilBoundaryInclusive mirrors the single-simulator
// boundary contract: events exactly at the limit fire.
func TestShardedRunUntilBoundaryInclusive(t *testing.T) {
	sh := NewSharded(1, 2)
	fired := false
	p := sh.Connect(0, 1, 50, func(data []byte) { fired = true })
	sh.Shard(0).ScheduleAt(50, func() { p.Send([]byte{1}) })
	sh.RunUntil(100) // arrival lands exactly at 100
	if !fired {
		t.Fatal("cross-shard arrival exactly at RunUntil boundary did not fire")
	}
}

// TestShardedAlignClocks: after uneven wiring-time activity, AlignClocks
// brings every shard to the common epoch.
func TestShardedAlignClocks(t *testing.T) {
	sh := NewSharded(1, 3)
	sh.Shard(1).RunUntil(700)
	sh.Shard(2).RunUntil(300)
	epoch := sh.AlignClocks()
	if epoch != 700 {
		t.Fatalf("epoch = %v, want 700", epoch)
	}
	for i := 0; i < 3; i++ {
		if now := sh.Shard(i).Now(); now != 700 {
			t.Errorf("shard %d clock = %v, want 700", i, now)
		}
	}
}

// TestShardedConnectValidation pins the lookahead precondition: a
// non-positive portal latency must panic (it would forbid any parallel
// progress), as must out-of-range shard indices.
func TestShardedConnectValidation(t *testing.T) {
	sh := NewSharded(1, 2)
	for _, c := range []struct {
		name     string
		src, dst int
		latency  Duration
	}{
		{"zero latency", 0, 1, 0},
		{"negative latency", 0, 1, -5},
		{"bad src", -1, 1, 10},
		{"bad dst", 0, 2, 10},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Connect did not panic", c.name)
				}
			}()
			sh.Connect(c.src, c.dst, c.latency, nil)
		}()
	}
}

// TestShardedConnectLink checks the cross-shard link: serialization time
// is charged on the source shard, the propagation delay rides the portal,
// and the frame arrives intact on the destination shard at exactly
// txDone + Prop.
func TestShardedConnectLink(t *testing.T) {
	sh := NewSharded(1, 2)
	var arrived Time
	var got []byte
	dst := sh.Shard(1)
	l := sh.ConnectLink(0, 1, tenGig, Microsecond, func(data []byte) {
		arrived = dst.Now()
		got = append([]byte(nil), data...)
	})
	frame := make([]byte, 1230) // 1250B incl. overhead = 1 µs on the wire
	frame[0] = 0xAB
	sh.Shard(0).ScheduleAt(1, func() {
		if !l.Send(frame) {
			t.Error("send refused")
		}
	})
	sh.Run()
	want := Time(1).Add(Microsecond).Add(Microsecond) // send + serialize + prop
	if arrived != want {
		t.Fatalf("arrival at %v, want %v", arrived, want)
	}
	if len(got) != 1230 || got[0] != 0xAB {
		t.Fatalf("frame corrupted in transit: len %d first byte %#x", len(got), got[0])
	}
	if st := l.Stats(); st.TxFrames != 1 || st.TxBytes != 1230 {
		t.Errorf("stats = %+v, want 1 frame / 1230 bytes", st)
	}
}

// TestShardedStreamPlacementInvariant: a partition's stream depends only
// on (seed, partition) — not on shard count — and differs from every
// shard's ambient RNG.
func TestShardedStreamPlacementInvariant(t *testing.T) {
	a := NewSharded(42, 1)
	b := NewSharded(42, 8)
	for p := 0; p < 16; p++ {
		ra, rb := a.Stream(p), b.Stream(p)
		for i := 0; i < 8; i++ {
			if ra.Int63() != rb.Int63() {
				t.Fatalf("partition %d stream differs between shard counts", p)
			}
		}
	}
	if a.Stream(0).Int63() == a.Shard(0).Rand().Int63() {
		t.Fatal("partition stream collides with shard ambient RNG")
	}
}

// TestShardedRunZeroAlloc pins the steady-state sharded hot path: once
// pools and rings are warm, circulating a token across shards allocates
// nothing per event or per message, and the barrier allocates nothing per
// Run — its lines, wake channels and exit join are built by NewSharded.
// What a Run does allocate is its workers: one goroutine start per shard
// beyond the first.
func TestShardedRunZeroAlloc(t *testing.T) {
	sh := NewSharded(1, 2)
	var fwd, bwd *Portal
	hops := 0
	const perRun = 10_000
	fwd = sh.Connect(0, 1, 20, func(data []byte) {
		hops++
		if hops%perRun != 0 {
			bwd.Send(data)
		}
	})
	bwd = sh.Connect(1, 0, 20, func(data []byte) {
		hops++
		if hops%perRun != 0 {
			fwd.Send(data)
		}
	})
	token := []byte{1}
	perRunAllocs := float64(sh.Shards() - 1)
	if n := testing.AllocsPerRun(3, func() {
		fwd.Send(token)
		sh.Run()
	}); n > perRunAllocs {
		t.Fatalf("sharded run allocates %v per %d-hop run, want ≤ %v", n, perRun, perRunAllocs)
	}
}

// TestShardedGoldenTraceAnyProcs runs the ring at GOMAXPROCS 1 and 2 with
// 2, 4 and 8 shards — every barrier regime: spinning (shards ≤ procs) and
// parking at once (shards > procs, including 8 workers on one P). The
// trace must not depend on which.
func TestShardedGoldenTraceAnyProcs(t *testing.T) {
	const nodes, hops = 8, 40
	want := ringWorld(42, 1, nodes, hops)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, shards := range []int{2, 4, 8} {
			if got := ringWorld(42, shards, nodes, hops); !reflect.DeepEqual(got, want) {
				t.Fatalf("GOMAXPROCS=%d shards=%d: trace differs from the 1-shard trace", procs, shards)
			}
		}
	}
}

// TestShardedWorkersExit: the per-Run worker goroutines are gone once a
// Run variant returns — whether it ran the heaps dry, stopped at a
// RunUntil limit with events still pending, or had nothing to do.
func TestShardedWorkersExit(t *testing.T) {
	sh := NewSharded(1, 4)
	p := sh.Connect(0, 3, 10, func([]byte) {})
	for i := 0; i < 4; i++ {
		sh.Shard(i).ScheduleAt(Time(5+i), func() {})
		sh.Shard(i).ScheduleAt(1000, func() {})
	}
	p.Send([]byte{1})
	before := runtime.NumGoroutine()
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"bounded, events left", func() { sh.RunUntil(100) }},
		{"to completion", sh.Run},
		{"nothing pending", sh.Run},
	} {
		c.run()
		// A worker's last act is to release shard 0's join, so it can
		// still be a few instructions from exiting when run returns.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("%s: %d goroutines after the run, %d before", c.name, n, before)
		}
	}
}

// TestShardedStats checks the window-loop counters against a world whose
// numbers are known: one portal overflowing its ring in one window.
func TestShardedStats(t *testing.T) {
	const n = portalRingSize + 500
	sh := NewSharded(1, 2)
	p := sh.Connect(0, 1, 10, func([]byte) {})
	data := []byte{1}
	sh.Shard(0).ScheduleAt(1, func() {
		for i := 0; i < n; i++ {
			p.Send(data)
		}
	})
	sh.Run()
	st := sh.Stats()
	if st.Windows != 2 || st.Events != n+1 || st.EventsMaxShard != n+1 {
		t.Errorf("windows=%d events=%d max-shard=%d, want 2, %d, %d", st.Windows, st.Events, st.EventsMaxShard, n+1, n+1)
	}
	if st.Imbalance() != 1 {
		t.Errorf("imbalance = %v, want 1 (each window's events sit on one shard)", st.Imbalance())
	}
	if st.PortalMsgs != n || st.PortalSpills != 500 {
		t.Errorf("portal msgs=%d spills=%d, want %d, 500", st.PortalMsgs, st.PortalSpills, n)
	}
	// Each shard waits once at every barrier: one before each window and
	// the one that ends the run.
	if got, want := st.SpinWaits+st.YieldWaits+st.ParkWaits, 2*(st.Windows+1); got != want {
		t.Errorf("barrier waits = %d, want %d", got, want)
	}
	if s := st.String(); s == "" {
		t.Error("empty String()")
	}
}
