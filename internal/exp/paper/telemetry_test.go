package paper

// The -telemetry knob must be purely additive: with it off (the default)
// result envelopes marshal byte-identically to the pre-telemetry
// harness, and with it on the same run gains counter fields that agree
// with the traffic the experiment actually carried.

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"flexsfp/internal/exp"
)

// runLinerateByName drives the registered experiment exactly as
// flexsfp-bench would.
func runLinerateByName(t *testing.T, ctx exp.RunContext) (exp.Result, error) {
	t.Helper()
	sel, err := exp.Default.Select("linerate", false)
	if err != nil {
		t.Fatal(err)
	}
	return sel[0].Run(ctx)
}

func TestLineRateTelemetryOff(t *testing.T) {
	res, err := runLinerateByName(t, exp.RunContext{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	env := res.Envelope()
	blob, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	// No telemetry key may appear anywhere in the default envelope —
	// params echo, summary metrics, or detail points.
	if strings.Contains(strings.ToLower(string(blob)), "telemetry") {
		t.Fatalf("default envelope leaks telemetry fields:\n%s", blob)
	}

	// Determinism: the instrumented build with the flag off must still
	// produce byte-identical envelopes run to run.
	res2, err := runLinerateByName(t, exp.RunContext{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	blob2, _ := json.Marshal(res2.Envelope())
	if !bytes.Equal(blob, blob2) {
		t.Fatal("telemetry-off envelope not reproducible")
	}
}

func TestLineRateTelemetryOn(t *testing.T) {
	res, err := runLinerateByName(t, exp.RunContext{Seed: 3, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	env := res.Envelope()
	if !env.Params.Telemetry {
		t.Fatal("params echo lost the telemetry flag")
	}
	detail, ok := env.Detail.(LineRateResult)
	if !ok {
		t.Fatalf("detail is %T", env.Detail)
	}
	for _, p := range detail.Points {
		if p.Telemetry == nil {
			t.Fatalf("point %s missing telemetry", p.Label)
		}
		// The PPE saw every frame the wire delivered minus queue drops;
		// at minimum the counter must be alive and byte counts coherent.
		if p.Telemetry.FramesIn == 0 || p.Telemetry.BytesIn == 0 {
			t.Fatalf("point %s counters empty: %+v", p.Label, p.Telemetry)
		}
		if p.Telemetry.MeanLatencyNs <= 0 || p.Telemetry.MaxLatencyNs == 0 {
			t.Fatalf("point %s latency empty: %+v", p.Label, p.Telemetry)
		}
		if p.FrameSize > 0 {
			if want := p.Telemetry.FramesIn * uint64(p.FrameSize); p.Telemetry.BytesIn != want {
				t.Fatalf("point %s bytes_in = %d, want frames*size = %d",
					p.Label, p.Telemetry.BytesIn, want)
			}
		}
	}

	var frames float64
	for _, m := range env.Metrics {
		if m.Name == "telemetry_frames_in" {
			frames = m.Mean
		}
	}
	if frames == 0 {
		t.Fatalf("summary metrics missing telemetry_frames_in: %+v", env.Metrics)
	}

	// Identical knobs aside from telemetry must not change the measured
	// experiment results (instrumentation is passive).
	bare, err := runLinerateByName(t, exp.RunContext{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	bareDetail := bare.Envelope().Detail.(LineRateResult)
	for i, p := range detail.Points {
		b := bareDetail.Points[i]
		if p.DeliveredPPS != b.DeliveredPPS || p.Drops != b.Drops || p.GoodputGbps != b.GoodputGbps {
			t.Fatalf("instrumentation perturbed point %s: %+v vs %+v", p.Label, p, b)
		}
	}
}
