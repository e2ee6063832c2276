package ppe

// Cross-shard integration of the engine's pooled completion fast path
// with the parallel simulation core: engines live on different shards,
// frames cross between them through portals, and the verdict streams must
// be identical at every shard count (the engine schedules all completions
// on its own shard, so the PDES windows never see a cross-shard pooled
// object).

import (
	"fmt"
	"net/netip"
	"testing"

	"flexsfp/internal/netsim"
	"flexsfp/internal/packet"
)

// shardedPipelineTraces builds a two-stage PPE pipeline across shards:
// frames enter engine A (shard 0), every pass verdict forwards the frame
// over a portal to engine B (shard 1), whose verdicts are logged. Each
// engine logs on its own shard (shard-local state only — the model's
// concurrency rule); the two streams pin verdict order, timing, and
// counters.
func shardedPipelineTraces(t *testing.T, shards int) (traceA, traceB []string) {
	t.Helper()
	sh := netsim.NewSharded(5, shards)
	simA := sh.Shard(sh.ShardFor(0))
	simB := sh.Shard(sh.ShardFor(1))

	var toB *netsim.Portal

	engB := NewEngine(simB, clock156, 64, func(v Verdict, ctx *Ctx) {
		traceB = append(traceB, fmt.Sprintf("B t=%v v=%v len=%d", simB.Now(), v, len(ctx.Data)))
	})
	if err := engB.SetProgram(passProgram()); err != nil {
		t.Fatal(err)
	}
	engA := NewEngine(simA, clock156, 64, func(v Verdict, ctx *Ctx) {
		traceA = append(traceA, fmt.Sprintf("A t=%v v=%v len=%d", simA.Now(), v, len(ctx.Data)))
		if v == VerdictPass {
			toB.Send(ctx.Data)
		}
	})
	if err := engA.SetProgram(passProgram()); err != nil {
		t.Fatal(err)
	}
	toB = sh.Connect(sh.ShardFor(0), sh.ShardFor(1), 100*netsim.Nanosecond, func(data []byte) {
		if !engB.Submit(data, DirEdgeToOptical) {
			t.Error("engine B refused a frame")
		}
	})

	frames := make([][]byte, 16)
	for i := range frames {
		frames[i] = packet.MustBuild(packet.Spec{
			SrcIP:   netip.MustParseAddr("10.0.0.1"),
			DstIP:   netip.MustParseAddr("10.0.0.2"),
			SrcPort: 4000,
			DstPort: uint16(5000 + i),
			PadTo:   64 + 32*i,
		})
	}
	for i := range frames {
		i := i
		simA.ScheduleAt(netsim.Time(1+100*i), func() {
			if !engA.Submit(frames[i], DirEdgeToOptical) {
				t.Error("engine A refused a frame")
			}
		})
	}
	sh.Run()

	if engA.Stats().In != 16 || engB.Stats().In != 16 {
		t.Fatalf("frames in A=%d B=%d, want 16/16", engA.Stats().In, engB.Stats().In)
	}
	if engA.Stats().Pass != 16 || engB.Stats().Pass != 16 {
		t.Fatalf("pass verdicts A=%d B=%d, want 16/16", engA.Stats().Pass, engB.Stats().Pass)
	}
	return traceA, traceB
}

func TestEngineCrossShardPipelineDeterministic(t *testing.T) {
	wantA, wantB := shardedPipelineTraces(t, 1)
	if len(wantA) != 16 || len(wantB) != 16 {
		t.Fatalf("reference traces have %d/%d verdicts, want 16/16", len(wantA), len(wantB))
	}
	for _, shards := range []int{2, 4} {
		gotA, gotB := shardedPipelineTraces(t, shards)
		for i := range wantA {
			if gotA[i] != wantA[i] {
				t.Fatalf("shards=%d: A verdict %d = %q, want %q", shards, i, gotA[i], wantA[i])
			}
		}
		for i := range wantB {
			if gotB[i] != wantB[i] {
				t.Fatalf("shards=%d: B verdict %d = %q, want %q", shards, i, gotB[i], wantB[i])
			}
		}
	}
}
