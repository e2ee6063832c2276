package paper

import (
	"fmt"
	"math/rand"

	"flexsfp/internal/apps"
	"flexsfp/internal/build"
	"flexsfp/internal/core"
	"flexsfp/internal/exp"
	"flexsfp/internal/fpga"
	"flexsfp/internal/hls"
	"flexsfp/internal/runner"
)

// ---------------------------------------------------------------------------
// §5.3 scalability: datapath width × clock → achievable line rate.

// ScalePoint is one (width, clock) design point.
type ScalePoint struct {
	DatapathBits int
	ClockMHz     float64
	// CapacityGbps is the min-frame-limited sustained rate.
	CapacityGbps float64
	// Supports is the highest standard rate sustained (10/25/40/100G).
	Supports int
	// NAT design resources at this width, and whether it fits/clocks on
	// the smallest viable PolarFire part.
	Device   string
	Fits     bool
	TimingOK bool
	PeakW    float64
	Thermal  bool // inside the SFP+ 3 W envelope
}

// ScalabilityResult is the §5.3 sweep.
type ScalabilityResult struct {
	Points []ScalePoint
}

// scaleSingle sweeps the PPE design space: scaling by widening the
// datapath and/or raising the clock, with the resource, timing, and
// thermal consequences §5.3 describes. The sweep is a deterministic
// design-space evaluation — the seed is accepted for the uniform
// RunContext contract but never consumed. The grid points are
// independent design evaluations, so they fan out across workers and
// merge back in grid order.
func scaleSingle(ctx exp.RunContext) (ScalabilityResult, error) {
	prog := apps.NewNAT().Program()
	widths := []int{64, 128, 256, 512}
	clocks := []int64{build.BaseClockHz, 2 * build.BaseClockHz, 400_000_000}
	rates := []int{10, 25, 40, 50, 100}
	type gridCell struct {
		w int
		c int64
	}
	var grid []gridCell
	for _, w := range widths {
		for _, c := range clocks {
			grid = append(grid, gridCell{w, c})
		}
	}
	points, _ := runner.Map(len(grid), runner.Options{Parallelism: ctx.Parallelism},
		func(i int, _ *rand.Rand) (ScalePoint, error) {
			w, c := grid[i].w, grid[i].c
			// Min-frame capacity: ceil(64/wordBytes)+1 cycles per frame.
			wordBytes := w / 8
			cycles := float64((64+wordBytes-1)/wordBytes + 1)
			pps := float64(c) / cycles
			// Convert to the line rate this sustains (wire = frame+20B).
			capGbps := pps * (64 + 20) * 8 / 1e9
			supports := 0
			for _, rGbps := range rates {
				if capGbps >= float64(rGbps)*0.999 {
					supports = rGbps
				}
			}
			est := hls.EstimateProgram(prog, w).Add(hls.ShellResources(hls.TwoWayCore))
			dev, err := fpga.SmallestFitting(est)
			fits := err == nil
			timingOK := false
			devName := "-"
			if fits {
				devName = dev.Name
				util := dev.Fit(est).Utilization.Max() / 100
				timingOK = dev.ClockFeasible(float64(c)/1e6, util, w)
			}
			peak := core.PeakPowerW(c, w, hls.TwoWayCore)
			return ScalePoint{
				DatapathBits: w,
				ClockMHz:     float64(c) / 1e6,
				CapacityGbps: capGbps,
				Supports:     supports,
				Device:       devName,
				Fits:         fits,
				TimingOK:     timingOK,
				PeakW:        peak,
				Thermal:      peak <= core.ThermalEnvelopeW,
			}, nil
		})
	return ScalabilityResult{Points: points}, nil
}

// Render formats the sweep.
func (r ScalabilityResult) Render() string {
	t := exp.NewTable("Width", "Clock (MHz)", "Capacity (Gb/s)", "Sustains", "Device", "Timing", "Peak W", "SFP+ envelope")
	for _, p := range r.Points {
		sus := "-"
		if p.Supports > 0 {
			sus = fmt.Sprintf("%dG", p.Supports)
		}
		timing := "ok"
		if !p.TimingOK {
			timing = "FAIL"
		}
		th := "yes"
		if !p.Thermal {
			th = "NO"
		}
		t.Add(fmt.Sprintf("%db", p.DatapathBits), fmt.Sprintf("%.2f", p.ClockMHz),
			fmt.Sprintf("%.1f", p.CapacityGbps), sus, p.Device, timing,
			fmt.Sprintf("%.2f", p.PeakW), th)
	}
	return "Scalability sweep (§5.3): datapath width × clock\n" + t.String()
}

func runScale(ctx exp.RunContext) (exp.Result, error) {
	r, err := scaleSingle(ctx)
	if err != nil {
		return nil, err
	}
	fits, thermal := 0, 0
	for _, p := range r.Points {
		if p.Fits && p.TimingOK {
			fits++
		}
		if p.Thermal {
			thermal++
		}
	}
	env := exp.Envelope{
		Name: "scale", Params: ctx.Params(), Detail: r,
		Metrics: []exp.Metric{
			exp.Scalar("design_points", "", float64(len(r.Points))),
			exp.Scalar("fit_and_timing_ok", "", float64(fits)),
			exp.Scalar("within_sfp_envelope", "", float64(thermal)),
		},
	}
	return exp.NewResult(env, r.Render), nil
}
