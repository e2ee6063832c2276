package paper

// The overlay mesh correctness wall: golden-pinned envelopes for both
// registry experiments (byte-for-byte, any shard count — shard
// invariance itself is pinned in shards_test.go) and the chaos
// invariants of the failover run across seeds.

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"flexsfp/internal/exp"
)

var updateOverlay = flag.Bool("update-overlay", false, "rewrite the overlay golden envelopes")

// TestOverlayGoldenEnvelopes pins the exact JSON envelope of both
// overlay experiments at the reference seed. Regenerate intentionally
// with: go test ./internal/exp/paper -run TestOverlayGoldenEnvelopes -update-overlay
func TestOverlayGoldenEnvelopes(t *testing.T) {
	for _, name := range []string{"overlay_linerate", "overlay_failover"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			got := envelopeJSON(t, name, exp.RunContext{Seed: 42, Shards: 1})
			path := filepath.Join("testdata", "golden_"+name+".json")
			if *updateOverlay {
				if err := os.WriteFile(path, append(got, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (regenerate with -update-overlay): %v", err)
			}
			if string(got)+"\n" != string(want) {
				t.Fatalf("%s envelope drifted from golden\ngot:  %s\nwant: %s", name, got, want)
			}
		})
	}
}

// TestOverlayFailoverInvariants runs the chaos scenario across seeds, not
// just the golden one. overlayFailover itself rejects a frame delivered
// to the withdrawn peer after convergence or an affected flow that never
// re-converged; this test adds that the unaffected flows kept delivering
// through the flaps.
func TestOverlayFailoverInvariants(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		r, err := overlayFailover(exp.RunContext{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r.SurvivingFlowsDelivered != r.SurvivingFlowsTotal {
			t.Errorf("seed %d: only %d/%d surviving flows delivered",
				seed, r.SurvivingFlowsDelivered, r.SurvivingFlowsTotal)
		}
		if r.WithdrawAtUs <= 0 || r.WearAtWithdraw <= 0 {
			t.Errorf("seed %d: withdrawal never happened (%+v)", seed, r)
		}
		for _, f := range r.Flows {
			if f.Recovered && f.LatencyUs < 0 {
				t.Errorf("seed %d: flow from cable-%d has negative re-route latency %f",
					seed, f.Sender, f.LatencyUs)
			}
		}
		if r.FramesDelivered == 0 || r.FramesSent == 0 {
			t.Errorf("seed %d: no traffic flowed (sent %d, delivered %d)",
				seed, r.FramesSent, r.FramesDelivered)
		}
	}
}

// TestOverlayLineRateIdentity checks the sweep against the phy identity:
// every case sustains its quantized offered rate loss-free, and the
// measured inner goodput matches offered × inner bits exactly.
func TestOverlayLineRateIdentity(t *testing.T) {
	r, err := overlayLineRate(exp.RunContext{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) == 0 {
		t.Fatal("no points")
	}
	for _, p := range r.Points {
		if !p.LineRate {
			t.Errorf("%s: dropped %d frames at line rate", p.Label, p.Drops)
		}
		if p.DeliveredPPS != p.OfferedPPS {
			t.Errorf("%s: delivered %.0f pps of %.0f offered", p.Label, p.DeliveredPPS, p.OfferedPPS)
		}
		if p.OfferedPPS > p.TheoryPPS {
			t.Errorf("%s: offered %.0f pps above the line-rate identity %.0f",
				p.Label, p.OfferedPPS, p.TheoryPPS)
		}
		wantGbps := p.DeliveredPPS * float64(p.InnerSize) * 8 / 1e9
		if diff := p.InnerGoodputGbps - wantGbps; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: inner goodput %.6f Gb/s, want %.6f", p.Label, p.InnerGoodputGbps, wantGbps)
		}
	}
	// The envelope must marshal cleanly (it is what the goldens pin).
	if _, err := json.Marshal(r); err != nil {
		t.Fatal(err)
	}
}
