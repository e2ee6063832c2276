package paper

import (
	"bytes"
	"encoding/json"
	"testing"

	"flexsfp/internal/exp"
)

func runRegistered(t *testing.T, name string, ctx exp.RunContext) exp.Envelope {
	t.Helper()
	sel, err := exp.Default.Select(name, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sel[0].Run(ctx)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res.Envelope()
}

// TestDSEEnvelopeParallelInvariant pins the DSE determinism contract at
// the registry level: the envelope JSON must be byte-identical whether
// the grid is scored serially or by eight workers.
func TestDSEEnvelopeParallelInvariant(t *testing.T) {
	marshal := func(par int) []byte {
		env := runRegistered(t, "dse", exp.RunContext{Seed: 1, Parallelism: par})
		// Params echoes Parallelism (an execution knob, not a model
		// knob); blank it so the comparison covers the payload only.
		env.Params.Parallelism = 0
		raw, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	serial := marshal(1)
	parallel := marshal(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("dse envelope depends on -parallel:\nserial   %d bytes\nparallel %d bytes",
			len(serial), len(parallel))
	}
}

// TestPipelineOptAcceptance pins the optimizer's acceptance criteria as
// a regression test: it must reduce pipeline depth for at least three
// catalog apps and measurably raise the program-bound XDP module's
// delivered rate at 64B line rate. That it never increases a depth and
// keeps every verdict identical is pipelineOptSingle's own check.
func TestPipelineOptAcceptance(t *testing.T) {
	env := runRegistered(t, "pipeline_opt", exp.RunContext{Seed: 1})
	metric := func(name string) float64 {
		t.Helper()
		for _, m := range env.Metrics {
			if m.Name == name {
				return m.Mean
			}
		}
		t.Fatalf("metric %q missing", name)
		return 0
	}
	if n := metric("apps_depth_reduced"); n < 3 {
		t.Errorf("depth reduced for %v apps, want >= 3", n)
	}
	off, on := metric("xdp_delivered_off"), metric("xdp_delivered_on")
	if on <= off {
		t.Errorf("optimizer did not raise delivered rate: %.3f -> %.3f Mpps", off, on)
	}

	detail, ok := env.Detail.(PipelineOptResult)
	if !ok {
		t.Fatalf("detail is %T, want PipelineOptResult", env.Detail)
	}
	if detail.XDP.Report.InsnsAfter >= detail.XDP.Report.InsnsBefore {
		t.Errorf("instruction passes removed nothing: %d -> %d",
			detail.XDP.Report.InsnsBefore, detail.XDP.Report.InsnsAfter)
	}
	if detail.LineRate.DropsOn >= detail.LineRate.DropsOff {
		t.Errorf("optimizer did not cut queue drops: %d -> %d",
			detail.LineRate.DropsOff, detail.LineRate.DropsOn)
	}
}

// TestLineRateOptFlagThreads smoke-checks the -opt wiring through the
// standard line-rate experiment: the optimized NAT build must still
// sustain line rate at every frame size and echo the knob in Params.
func TestLineRateOptFlagThreads(t *testing.T) {
	env := runRegistered(t, "linerate", exp.RunContext{Seed: 1, Optimize: true})
	if !env.Params.Optimize {
		t.Error("Params does not echo Optimize")
	}
	detail, ok := env.Detail.(LineRateResult)
	if !ok {
		t.Fatalf("detail is %T, want LineRateResult", env.Detail)
	}
	for _, p := range detail.Points {
		if !p.LineRate {
			t.Errorf("%s: optimized NAT lost line rate (%d drops)", p.Label, p.Drops)
		}
	}
}
