package paper

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"flexsfp/internal/exp"
)

// TestPowerExperimentTrials checks that the multi-seed power experiment
// agrees with the single-seed paper numbers and is bit-identical for any
// worker count (each trial's seed is a pure function of the root seed).
func TestPowerExperimentTrials(t *testing.T) {
	serial, err := powerTrials(exp.RunContext{Seed: 7, Trials: 3, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := powerTrials(exp.RunContext{Seed: 7, Trials: 3, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if serial != parallel {
		t.Errorf("trials differ across worker counts:\nserial   %+v\nparallel %+v", serial, parallel)
	}
	if serial.Trials != 3 || serial.NICOnlyW.N != 3 {
		t.Fatalf("trial count = %d/%d", serial.Trials, serial.NICOnlyW.N)
	}
	if math.Abs(serial.NICOnlyW.Mean-3.800) > 0.005 {
		t.Errorf("NIC-only mean = %.3f", serial.NICOnlyW.Mean)
	}
	if math.Abs(serial.WithFlexW.Mean-5.320) > 0.02 {
		t.Errorf("with-FlexSFP mean = %.3f", serial.WithFlexW.Mean)
	}
	if serial.Utilization.Min < 0.95 {
		t.Errorf("utilization min = %.2f under 2x overload", serial.Utilization.Min)
	}
	out := serial.Render()
	for _, want := range []string{"3 trials", "±", "NIC + FlexSFP"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestLineRateExperimentTrials checks the multi-seed sweep: per-point
// reduction over trials, line rate sustained in every trial, and
// parallelism-independence.
func TestLineRateExperimentTrials(t *testing.T) {
	serial, err := lineRateTrials(exp.RunContext{Seed: 3, Trials: 2, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := lineRateTrials(exp.RunContext{Seed: 3, Trials: 2, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("trials differ across worker counts")
	}
	if len(serial.Points) != 7 {
		t.Fatalf("points = %d", len(serial.Points))
	}
	for _, p := range serial.Points {
		if p.OfferedPPS.N != 2 {
			t.Errorf("%s: reduced over %d trials, want 2", p.Label, p.OfferedPPS.N)
		}
		if !p.LineRateAll {
			t.Errorf("%s: dropped frames at line rate", p.Label)
		}
		if p.DeliveredPPS.Mean < p.OfferedPPS.Mean*0.995 {
			t.Errorf("%s: delivered %.0f of %.0f pps", p.Label, p.DeliveredPPS.Mean, p.OfferedPPS.Mean)
		}
	}
	// 64B point ≈ 14.88 Mpps, as in the single-seed sweep.
	if p := serial.Points[0]; math.Abs(p.DeliveredPPS.Mean-14.88e6)/14.88e6 > 0.01 {
		t.Errorf("64B delivered = %.0f pps", p.DeliveredPPS.Mean)
	}
	if !strings.Contains(serial.Render(), "2 trials") {
		t.Error("render missing trial count")
	}
}

// TestReliabilityExperimentTrials checks the multi-seed fleet wrapper.
func TestReliabilityExperimentTrials(t *testing.T) {
	r := ReliabilityExperimentTrials(11, 4, 0)
	if r.Report.Trials != 4 || r.Report.Modules != 10000 {
		t.Fatalf("report = %d trials / %d modules", r.Report.Trials, r.Report.Modules)
	}
	if r.Report.Failures.Mean == 0 {
		t.Fatal("no failures in 10-year horizon")
	}
	if r.Report.Failures.Stddev == 0 {
		t.Error("independent seeds produced identical failure counts")
	}
	if frac := r.Report.DetectedEarly.Mean / r.Report.Failures.Mean; frac < 0.9 {
		t.Errorf("DDM early detection = %.2f", frac)
	}
	if r.Report.LaserRepairSavingFrac.Mean < 0.7 {
		t.Errorf("laser repair saving = %.2f", r.Report.LaserRepairSavingFrac.Mean)
	}
	out := r.Render()
	for _, want := range []string{"Trials", "±", "Laser-repair saving"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}
