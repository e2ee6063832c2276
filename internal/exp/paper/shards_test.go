package paper

// Golden-trace determinism for the parallel simulation core: the Shards
// knob is execution placement only, so for every experiment that supports
// it the full JSON envelope — params echo, metrics, detail — must be
// byte-identical across shard counts at a fixed seed.

import (
	"encoding/json"
	"runtime"
	"testing"

	"flexsfp/internal/exp"
)

// envelopeJSON runs a registered experiment and marshals its envelope.
func envelopeJSON(t *testing.T, name string, ctx exp.RunContext) []byte {
	t.Helper()
	sel, err := exp.Default.Select(name, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sel[0].Run(ctx)
	if err != nil {
		t.Fatalf("run %s: %v", name, err)
	}
	raw, err := json.Marshal(res.Envelope())
	if err != nil {
		t.Fatalf("marshal %s envelope: %v", name, err)
	}
	return raw
}

// TestShardsByteIdenticalJSON is the acceptance pin: for every sharded
// netsim experiment, shards ∈ {1, 2, 4, 8} produce byte-identical JSON,
// and so do 4 shards on one P, where every barrier wait parks.
func TestShardsByteIdenticalJSON(t *testing.T) {
	names := []string{"linerate", "overlay_linerate", "overlay_failover"}
	// GOMAXPROCS is process-wide, so the one-P pass runs and restores it
	// before the parallel subtests start.
	oneP := make(map[string][]byte)
	func() {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		for _, name := range names {
			oneP[name] = envelopeJSON(t, name, exp.RunContext{Seed: 42, Shards: 4})
		}
	}()
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ref := envelopeJSON(t, name, exp.RunContext{Seed: 42, Shards: 1})
			for _, shards := range []int{2, 4, 8} {
				got := envelopeJSON(t, name, exp.RunContext{Seed: 42, Shards: shards})
				if string(got) != string(ref) {
					t.Fatalf("%s: shards=%d JSON differs from shards=1\nshards=1: %s\nshards=%d: %s",
						name, shards, ref, shards, got)
				}
			}
			if got := oneP[name]; string(got) != string(ref) {
				t.Fatalf("%s: shards=4 at GOMAXPROCS=1 JSON differs from shards=1\nshards=1: %s\none P:    %s",
					name, ref, got)
			}
			// A different seed must change the output (the pin is not
			// comparing constants).
			other := envelopeJSON(t, name, exp.RunContext{Seed: 43, Shards: 4})
			if string(other) == string(ref) {
				t.Fatalf("%s: different seeds produced identical JSON", name)
			}
		})
	}
}

// TestShardsNotEchoedInParams guards the invariant that makes the
// byte-identity pin possible at all: Shards must never appear in the
// params echo (it is placement, not a model knob).
func TestShardsNotEchoedInParams(t *testing.T) {
	p, err := json.Marshal(exp.RunContext{Seed: 1, Shards: 8}.Params())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(p, &m); err != nil {
		t.Fatal(err)
	}
	for k := range m {
		if k == "shards" {
			t.Fatal("Shards leaked into the params echo; sharded and unsharded envelopes can no longer be identical")
		}
	}
}

// TestLineRateShardedTrials covers the multi-trial path with the knob
// threaded through: trials fan out across workers, each trial's sweep
// runs sharded, and the reduction stays shard-count-invariant.
func TestLineRateShardedTrials(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial sharded sweep is slow")
	}
	a := envelopeJSON(t, "linerate", exp.RunContext{Seed: 7, Trials: 2, Shards: 1})
	b := envelopeJSON(t, "linerate", exp.RunContext{Seed: 7, Trials: 2, Shards: 4})
	if string(a) != string(b) {
		t.Fatalf("multi-trial sharded sweep not shard-count-invariant\nshards=1: %s\nshards=4: %s", a, b)
	}
}
