package main

import (
	"sort"
	"sync"
	"time"
)

// sampleMask selects which operations the traced pass records: one frame,
// RPC or member in 64, chosen by its id so the choice is deterministic.
const sampleMask = 63

// maxKeptSpans bounds the spans written out with -out; the per-name
// aggregates always cover every recorded span.
const maxKeptSpans = 64

// spanChunk is how many records one allocation holds. Records carry no
// pointers (the name is an index), so the collector never scans them, and
// a full chunk is never copied: a traced repeat records ~100k spans, and a
// growing slice of structs with strings would cost more than the spans.
const spanChunk = 1 << 16

type spanRec struct {
	name           uint16
	parent         int32 // handle of the enclosing span, 0 = none
	opID           uint64
	startNs, endNs int64 // since the tracer's epoch
}

// tracer keeps spans in memory. One mutex guards it: only 1 operation in
// 64 records anything, so the lock is almost never contended, and the
// callbacks of the two-shard and TCP workloads run on several goroutines.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	chunks [][]spanRec
	n      int
}

// Span names. A span is recorded around a callback the benchmark owns.
const (
	spGenSink     uint16 = iota // the generator's sink: stamp + wire Send
	spLinkSend                  // netsim.Link.Send on the tester's wire
	spCoreRx                    // the wire's deliver callback: Module.RxEdge
	spNATHandler                // wrapped Engine().Program().Handler
	spXDPHandler                //
	spMeshEncap                 //
	spMeshDecap                 //
	spTxSink                    // the SetTx sink: latency, output check
	spChurnTick                 // one churn tick: three in-process RPCs
	spTCPRPC                    // Transport.Do of a small RPC over TCP
	spXferRPC                   // Transport.Do of a push RPC (begin/chunk/commit)
	spAgentHandle               // the server-side handler: Agent.Handle
	spFleetPush                 // FleetMember.Push of a wrapped member
	spFleetStats                // FleetMember.Stats of a wrapped member
)

var spanNames = [...]string{
	spGenSink: "bench.gen_sink", spLinkSend: "netsim.link.send", spCoreRx: "core.rx",
	spNATHandler: "apps.nat.handler", spXDPHandler: "apps.xdp.handler",
	spMeshEncap: "apps.mesh.encap", spMeshDecap: "apps.mesh.decap",
	spTxSink: "bench.tx_sink", spChurnTick: "mgmt.churn_tick",
	spTCPRPC: "mgmt.tcp.rpc", spXferRPC: "mgmt.xfer.rpc", spAgentHandle: "mgmt.agent.handle",
	spFleetPush: "daemon.fleet.push", spFleetStats: "daemon.fleet.stats",
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// sampled reports whether operation id is traced. A nil tracer traces
// nothing, which is how the untraced pass runs the same code.
func (t *tracer) sampled(id uint64) bool { return t != nil && id&sampleMask == 0 }

func (t *tracer) rec(h int) *spanRec { return &t.chunks[(h-1)/spanChunk][(h-1)%spanChunk] }

// begin opens a span and returns its handle, for end and for use as a
// child's parent.
func (t *tracer) begin(name uint16, opID uint64, parent int) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	if t.n == len(t.chunks)*spanChunk {
		t.chunks = append(t.chunks, make([]spanRec, spanChunk))
	}
	t.n++
	h := t.n
	*t.rec(h) = spanRec{name: name, parent: int32(parent), opID: opID, startNs: now}
	t.mu.Unlock()
	return h
}

func (t *tracer) end(h int) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.rec(h).endNs = now
	t.mu.Unlock()
}

// span is a record as written out: name, the operation it belongs to, the
// span that caused it (index+1 into the same list, 0 = none), start, end.
type span struct {
	Name    string `json:"name"`
	OpID    uint64 `json:"op"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// first returns up to n of the earliest recorded spans.
func (t *tracer) first(n int) []span {
	out := make([]span, 0, min(n, t.n))
	for h := 1; h <= t.n && len(out) < n; h++ {
		r := t.rec(h)
		out = append(out, span{Name: spanNames[r.name], OpID: r.opID, Parent: int(r.parent), StartNs: r.startNs, EndNs: r.endNs})
	}
	return out
}

// spanStat is the per-name aggregate of a traced pass. Self time is a
// span's duration minus the part its child spans cover.
type spanStat struct {
	Name      string  `json:"name"`
	Count     int     `json:"count"`
	P50Ns     float64 `json:"p50_ns"`
	P99Ns     float64 `json:"p99_ns"`
	SelfP50Ns float64 `json:"self_p50_ns"`
	TotalNs   int64   `json:"total_ns"`
}

// summarize folds the spans into per-name statistics, subtracting the
// timer's own cost: one clock pair per span, and one more per direct
// child from the self time.
func (t *tracer) summarize(timerNs float64) map[string]spanStat {
	childNs := make([]int64, t.n+1)
	children := make([]int, t.n+1)
	for h := 1; h <= t.n; h++ {
		if r := t.rec(h); r.parent > 0 {
			childNs[r.parent] += r.endNs - r.startNs
			children[r.parent]++
		}
	}
	durs := make([][]float64, len(spanNames))
	selfs := make([][]float64, len(spanNames))
	totals := make([]int64, len(spanNames))
	for h := 1; h <= t.n; h++ {
		r := t.rec(h)
		d := r.endNs - r.startNs
		durs[r.name] = append(durs[r.name], max(float64(d)-timerNs, 0))
		selfs[r.name] = append(selfs[r.name], max(float64(d-childNs[h])-timerNs*float64(1+children[h]), 0))
		totals[r.name] += d
	}
	out := map[string]spanStat{}
	for i, name := range spanNames {
		if len(durs[i]) == 0 {
			continue
		}
		out[name] = spanStat{
			Name: name, Count: len(durs[i]), TotalNs: totals[i],
			P50Ns: median(durs[i]), P99Ns: quantile(durs[i], 0.99), SelfP50Ns: median(selfs[i]),
		}
	}
	return out
}

func sortedStats(m map[string]spanStat) []spanStat {
	out := make([]spanStat, 0, len(m))
	for _, st := range m {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
