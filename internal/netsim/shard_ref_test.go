package netsim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"
)

// The differential wall for the parallel core: random multi-partition
// worlds run on Sharded at 1, 2, 4 and 8 shards must log, partition by
// partition, exactly what a serial reference logs. The reference below
// shares no code with Sharded's window loop: one event list per
// partition, a stable sort for the barrier merge, no rings, no
// goroutines. It executes the documented contract literally:
//
//   - windows are global: T is the earliest pending time anywhere, every
//     partition runs its events before T + lookahead (RunUntil clamps the
//     end to limit + 1);
//   - at every barrier, the run's exit included, messages sent in the
//     window just ended join their destination's queue in (arrival time,
//     portal id) order, FIFO within a portal, behind every event the
//     destination scheduled before the barrier;
//   - same-time events fire in the order they were queued.

// vsPortal is one cross-partition channel of a generated world.
type vsPortal struct {
	src, dst int
	latency  Duration
}

// vsStart is an event queued before the first run (or, with a run index
// above zero, between runs) on one partition. A burst start sends size
// terminal messages through portal each time it fires, and rearms one
// lookahead later until its rounds are spent, so consecutive windows
// overflow the portal's ring.
type vsStart struct {
	run    int // queued before run number run
	part   int
	at     Time
	tok    int
	burst  bool
	portal int
	size   int
	rounds int
}

// vsWorld is a generated world: partitions, portals, an event program
// (fire), starting events and the runs to execute.
type vsWorld struct {
	seed    int64
	parts   int
	portals []vsPortal
	out     [][]int // per partition, the portals it sends on
	starts  []vsStart
	sends   []vsStart // wiring-time messages (tok through portal, before run 0)
	limits  []Time    // RunUntil limits; a final Run follows
	hops    int
	budget  int
	maxLat  Duration
}

// vsLog is one line of a partition's delivery log.
type vsLog struct {
	at       Time
	kind     byte // 'e' local event, 'a' arrival, 'b' burst round
	tok, hop int  // a burst's messages carry hop -1, -2, ... in send order
	portal   int
}

// vsEnv is what the event program may do: schedule on its own partition
// and send through one of its portals.
type vsEnv interface {
	now() Time
	after(d Duration, tok, hop int)
	afterBurst(d Duration, s vsStart)
	send(portal, tok, hop int)
}

// vsPart is one partition's model state, touched only by its own events.
type vsPart struct {
	rng    *rand.Rand
	budget int
	log    []vsLog
}

func genVsWorld(seed int64) *vsWorld {
	rng := rand.New(rand.NewSource(seed))
	w := &vsWorld{seed: seed, parts: 1 + rng.Intn(8), hops: 8 + rng.Intn(40), budget: 40 + rng.Intn(200)}
	// Odd partitions idle in a third of the worlds: no starts and no
	// inbound portals, so at two shards one shard has nothing to do.
	idle := func(p int) bool { return seed%3 == 0 && p%2 == 1 && w.parts > 1 }
	w.out = make([][]int, w.parts)
	for i, n := 0, rng.Intn(3*w.parts+1); i < n; i++ {
		src, dst := rng.Intn(w.parts), rng.Intn(w.parts)
		if idle(dst) {
			continue
		}
		lat := Duration(1 + rng.Intn(64))
		if lat > w.maxLat {
			w.maxLat = lat
		}
		w.out[src] = append(w.out[src], len(w.portals))
		w.portals = append(w.portals, vsPortal{src: src, dst: dst, latency: lat})
	}
	tok := 0
	for p := 0; p < w.parts; p++ {
		if idle(p) {
			continue
		}
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			w.starts = append(w.starts, vsStart{part: p, at: Time(rng.Intn(100)), tok: tok})
			tok++
		}
		if len(w.out[p]) > 0 && rng.Intn(3) == 0 {
			w.starts = append(w.starts, vsStart{
				part: p, at: Time(rng.Intn(100)), tok: tok, burst: true,
				portal: w.out[p][rng.Intn(len(w.out[p]))],
				size:   portalRingSize/2 + rng.Intn(portalRingSize), rounds: 1 + rng.Intn(4),
			})
			tok++
		}
		if len(w.out[p]) > 0 && rng.Intn(2) == 0 {
			w.sends = append(w.sends, vsStart{part: p, tok: tok, portal: w.out[p][rng.Intn(len(w.out[p]))]})
			tok++
		}
	}
	var limit Time
	for i, n := 0, rng.Intn(4); i < n; i++ {
		limit += Time(1 + rng.Intn(400))
		w.limits = append(w.limits, limit)
		// Queue work between runs at the instants the exit barrier's
		// arrivals may land on, so their order against it is pinned.
		for j, m := 0, rng.Intn(3); j < m; j++ {
			p := rng.Intn(w.parts)
			if idle(p) {
				continue
			}
			w.starts = append(w.starts, vsStart{run: i + 1, part: p, at: limit + 1 + Time(rng.Intn(int(w.maxLat)+1)), tok: tok})
			tok++
		}
	}
	return w
}

// fire runs one event of the program on partition p.
func (w *vsWorld) fire(e vsEnv, st *vsPart, p, tok, hop int) {
	if hop >= w.hops || st.budget <= 0 {
		return
	}
	st.budget--
	delay := func() Duration {
		if st.rng.Intn(3) == 0 {
			return 0 // same-time follow-ups: FIFO among equals
		}
		return Duration(st.rng.Intn(int(w.maxLat) + 8))
	}
	sendSome := func() bool {
		if len(w.out[p]) == 0 {
			return false
		}
		e.send(w.out[p][st.rng.Intn(len(w.out[p]))], tok, hop+1)
		return true
	}
	switch r := st.rng.Intn(10); {
	case r < 3:
		e.after(delay(), tok, hop+1)
	case r < 6:
		if !sendSome() {
			e.after(delay(), tok, hop+1)
		}
	case r < 8: // fan out: a follow-up and a message
		e.after(delay(), tok, hop+1)
		sendSome()
	case r < 9: // two messages, possibly on one portal
		sendSome()
		sendSome()
	default: // two same-time follow-ups
		e.after(0, tok, hop+1)
		e.after(0, tok, hop+2)
	}
}

// burst fires one round of a burst start.
func (w *vsWorld) burst(e vsEnv, st *vsPart, s vsStart) {
	st.log = append(st.log, vsLog{at: e.now(), kind: 'b', tok: s.tok, hop: s.rounds})
	for i := 0; i < s.size; i++ {
		e.send(s.portal, s.tok, -1-i) // negative hop: terminal, FIFO index
	}
	if s.rounds--; s.rounds > 0 {
		e.afterBurst(w.lookahead(), s)
	}
}

// arrive handles a message delivered through portal.
func (w *vsWorld) arrive(e vsEnv, st *vsPart, p, portal, tok, hop int) {
	st.log = append(st.log, vsLog{at: e.now(), kind: 'a', tok: tok, hop: hop, portal: portal})
	if hop >= 0 {
		w.fire(e, st, p, tok, hop)
	}
}

// event handles a local event.
func (w *vsWorld) event(e vsEnv, st *vsPart, p, tok, hop int) {
	st.log = append(st.log, vsLog{at: e.now(), kind: 'e', tok: tok, hop: hop})
	w.fire(e, st, p, tok, hop)
}

func (w *vsWorld) lookahead() Duration {
	la := Duration(0)
	for _, pt := range w.portals {
		if la == 0 || pt.latency < la {
			la = pt.latency
		}
	}
	return la
}

func (w *vsWorld) newParts() []*vsPart {
	ps := make([]*vsPart, w.parts)
	for p := range ps {
		ps[p] = &vsPart{rng: rand.New(rand.NewSource(w.seed*131 + int64(p))), budget: w.budget}
	}
	return ps
}

func (w *vsWorld) logs(ps []*vsPart) [][]vsLog {
	out := make([][]vsLog, len(ps))
	for p, st := range ps {
		out[p] = st.log
	}
	return out
}

// ---- the serial reference ----

type refEv struct {
	at  Time
	seq uint64
	fn  func()
}

type refQueue []*refEv

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	return q[i].at < q[j].at || (q[i].at == q[j].at && q[i].seq < q[j].seq)
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEv)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

type refMsg struct {
	at       Time
	portal   int
	tok, hop int
}

type refPart struct {
	now Time
	seq uint64
	q   refQueue
}

type refWorld struct {
	w       *vsWorld
	ps      []*vsPart
	rp      []*refPart
	pending []refMsg // sent since the last barrier, in send order
}

func (r *refWorld) push(p int, at Time, fn func()) {
	rp := r.rp[p]
	if at < rp.now {
		at = rp.now
	}
	heap.Push(&rp.q, &refEv{at: at, seq: rp.seq, fn: fn})
	rp.seq++
}

// refEnv is the event program's view of partition p in the reference.
type refEnv struct {
	r *refWorld
	p int
}

func (e refEnv) now() Time { return e.r.rp[e.p].now }
func (e refEnv) after(d Duration, tok, hop int) {
	r, p := e.r, e.p
	r.push(p, e.now().Add(d), func() { r.w.event(e, r.ps[p], p, tok, hop) })
}
func (e refEnv) afterBurst(d Duration, s vsStart) {
	r, p := e.r, e.p
	r.push(p, e.now().Add(d), func() { r.w.burst(e, r.ps[p], s) })
}
func (e refEnv) send(portal, tok, hop int) {
	at := e.now().Add(e.r.w.portals[portal].latency)
	e.r.pending = append(e.r.pending, refMsg{at: at, portal: portal, tok: tok, hop: hop})
}

// barrier merges every pending message into its destination's queue.
func (r *refWorld) barrier() {
	sort.SliceStable(r.pending, func(i, j int) bool {
		a, b := r.pending[i], r.pending[j]
		return a.at < b.at || (a.at == b.at && a.portal < b.portal)
	})
	for _, m := range r.pending {
		m := m
		dst := r.w.portals[m.portal].dst
		e := refEnv{r, dst}
		r.push(dst, m.at, func() { r.w.arrive(e, r.ps[dst], dst, m.portal, m.tok, m.hop) })
	}
	r.pending = r.pending[:0]
}

func (r *refWorld) run(limit Time, bounded bool) {
	la := r.w.lookahead()
	for {
		r.barrier()
		T, ok := Time(0), false
		for _, rp := range r.rp {
			if len(rp.q) > 0 && (!ok || rp.q[0].at < T) {
				T, ok = rp.q[0].at, true
			}
		}
		if !ok || (bounded && T > limit) {
			break
		}
		end := Time(1) << 62
		if la > 0 {
			end = T.Add(la)
		}
		if bounded && end > limit+1 {
			end = limit + 1
		}
		for _, rp := range r.rp {
			for len(rp.q) > 0 && rp.q[0].at < end {
				ev := heap.Pop(&rp.q).(*refEv)
				rp.now = ev.at
				ev.fn()
			}
		}
	}
	if bounded {
		for _, rp := range r.rp {
			if rp.now < limit {
				rp.now = limit
			}
		}
	}
}

// runRef executes w on the reference and returns the per-partition logs.
func runRef(w *vsWorld) [][]vsLog {
	r := &refWorld{w: w, ps: w.newParts(), rp: make([]*refPart, w.parts)}
	for p := range r.rp {
		r.rp[p] = &refPart{}
	}
	queue := func(run int) {
		for _, s := range w.starts {
			if s.run != run {
				continue
			}
			s, e := s, refEnv{r, s.part}
			if s.burst {
				r.push(s.part, s.at, func() { w.burst(e, r.ps[s.part], s) })
			} else {
				r.push(s.part, s.at, func() { w.event(e, r.ps[s.part], s.part, s.tok, 0) })
			}
		}
	}
	queue(0)
	for _, s := range w.sends {
		refEnv{r, s.part}.send(s.portal, s.tok, 0)
	}
	for i, limit := range w.limits {
		r.run(limit, true)
		queue(i + 1)
	}
	r.run(0, false)
	return w.logs(r.ps)
}

// ---- the same world on Sharded ----

type shEnv struct {
	w   *vsWorld
	sim *Simulator
	st  *vsPart
	p   int
	out []*Portal
}

func (e *shEnv) now() Time { return e.sim.Now() }
func (e *shEnv) after(d Duration, tok, hop int) {
	e.sim.ScheduleDetached(d, func() { e.w.event(e, e.st, e.p, tok, hop) })
}
func (e *shEnv) afterBurst(d Duration, s vsStart) {
	e.sim.ScheduleDetached(d, func() { e.w.burst(e, e.st, s) })
}
func (e *shEnv) send(portal, tok, hop int) {
	e.out[portal].Send([]byte{byte(tok >> 8), byte(tok), byte(hop >> 24), byte(hop >> 16), byte(hop >> 8), byte(hop)})
}

// runSharded executes w on n shards and returns the per-partition logs.
func runSharded(w *vsWorld, n int) [][]vsLog {
	sh := NewSharded(w.seed, n)
	ps := w.newParts()
	out := make([]*Portal, len(w.portals))
	envs := make([]*shEnv, w.parts)
	for p := range envs {
		envs[p] = &shEnv{w: w, sim: sh.Shard(sh.ShardFor(p)), st: ps[p], p: p, out: out}
	}
	for i, pt := range w.portals {
		i, e := i, envs[pt.dst]
		out[i] = sh.Connect(sh.ShardFor(pt.src), sh.ShardFor(pt.dst), pt.latency, func(data []byte) {
			tok := int(data[0])<<8 | int(data[1])
			hop := int(int32(uint32(data[2])<<24 | uint32(data[3])<<16 | uint32(data[4])<<8 | uint32(data[5])))
			w.arrive(e, e.st, e.p, i, tok, hop)
		})
	}
	queue := func(run int) {
		for _, s := range w.starts {
			if s.run != run {
				continue
			}
			s, e := s, envs[s.part]
			if s.burst {
				e.sim.ScheduleAt(s.at, func() { w.burst(e, e.st, s) })
			} else {
				e.sim.ScheduleAt(s.at, func() { w.event(e, e.st, s.part, s.tok, 0) })
			}
		}
	}
	queue(0)
	for _, s := range w.sends {
		envs[s.part].send(s.portal, s.tok, 0)
	}
	for i, limit := range w.limits {
		sh.RunUntil(limit)
		queue(i + 1)
	}
	sh.Run()
	return w.logs(ps)
}

// checkShardedVsRef runs world seed on the reference and at every shard
// count, failing on the first partition whose log differs.
func checkShardedVsRef(t *testing.T, seed int64) {
	t.Helper()
	w := genVsWorld(seed)
	want := runRef(w)
	for _, n := range []int{1, 2, 4, 8} {
		// Shards that disagree on a window wait for each other forever:
		// report that as a failure rather than hang the package.
		done := make(chan [][]vsLog, 1)
		go func() { done <- runSharded(w, n) }()
		var got [][]vsLog
		select {
		case got = <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("seed %d, %d partitions, %d portals, shards=%d, GOMAXPROCS=%d: the run did not finish (barrier deadlock)",
				seed, w.parts, len(w.portals), n, runtime.GOMAXPROCS(0))
		}
		for p := range want {
			if !reflect.DeepEqual(got[p], want[p]) {
				t.Fatalf("seed %d, %d partitions, %d portals, shards=%d, GOMAXPROCS=%d: partition %d %s",
					seed, w.parts, len(w.portals), n, runtime.GOMAXPROCS(0), p, vsDiff(got[p], want[p]))
			}
		}
	}
}

func vsDiff(got, want []vsLog) string {
	for i := range want {
		if i >= len(got) {
			return fmt.Sprintf("ends after %d entries, reference has %d (next %+v)", len(got), len(want), want[i])
		}
		if got[i] != want[i] {
			return fmt.Sprintf("diverges at entry %d: got %+v, reference %+v", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("has %d entries, reference %d", len(got), len(want))
}

// TestShardedVsRef runs random worlds at 1/2/4/8 shards under GOMAXPROCS
// 1 (every barrier wait gives up its P) and 2 (waiters spin).
func TestShardedVsRef(t *testing.T) {
	worlds := 60
	if testing.Short() {
		worlds = 15
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for seed := int64(1); seed <= int64(worlds); seed++ {
			checkShardedVsRef(t, seed)
		}
	}
}

// TestShardedVsRefWorlds keeps the generator honest: across the seeds
// TestShardedVsRef runs, the worlds include every shape the wall is for.
func TestShardedVsRefWorlds(t *testing.T) {
	var bursts, consecutive, idle, ties, runs int
	for seed := int64(1); seed <= 60; seed++ {
		w := genVsWorld(seed)
		for _, s := range w.starts {
			if s.burst && s.size > portalRingSize {
				bursts++
				if s.rounds > 1 {
					consecutive++
				}
			}
		}
		if seed%3 == 0 && w.parts > 2 {
			idle++
		}
		if len(w.limits) > 0 {
			runs++
		}
		seen := map[Time]bool{}
		for _, l := range runRef(w) {
			for _, e := range l {
				if e.kind == 'a' && seen[e.at] {
					ties++
				}
				seen[e.at] = true
			}
		}
	}
	if bursts == 0 || consecutive == 0 || idle == 0 || ties == 0 || runs == 0 {
		t.Fatalf("generator coverage: %d ring-overflowing bursts, %d over consecutive windows, %d idle-shard worlds, %d same-time arrivals, %d multi-run worlds",
			bursts, consecutive, idle, ties, runs)
	}
}

// FuzzShardedVsRef is the same wall over fuzzer-chosen world seeds.
func FuzzShardedVsRef(f *testing.F) {
	for _, seed := range []int64{1, 3, 7, 12, 42} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkShardedVsRef(t, seed)
	})
}
