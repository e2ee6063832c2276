package paper

import (
	"reflect"
	"testing"

	"flexsfp/internal/exp"
)

func TestReconfigUnderFaultsCleanBaseline(t *testing.T) {
	res, err := faultsSweep(exp.RunContext{Seed: 3, Trials: 2, Parallelism: 1, FaultRate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(faultRateFracs) {
		t.Fatalf("points = %d", len(res.Points))
	}
	p0 := res.Points[0]
	if p0.Rate != 0 {
		t.Fatalf("first point rate = %v, want 0", p0.Rate)
	}
	// With the injector silent the rollout must be perfect: every module
	// running the new image, with zero faults, retries, or recoveries.
	if p0.Availability.Mean != 1 || p0.UpgradeRate.Mean != 1 {
		t.Errorf("availability=%v upgraded=%v, want 1/1", p0.Availability.Mean, p0.UpgradeRate.Mean)
	}
	for name, s := range map[string]float64{
		"faults":    p0.InjectedFaults.Mean,
		"retries":   p0.ClientRetries.Mean,
		"rollbacks": p0.CanaryRollbacks.Mean,
		"golden":    p0.GoldenFallbacks.Mean,
		"watchdog":  p0.WatchdogTrips.Mean,
	} {
		if s != 0 {
			t.Errorf("%s = %v at rate 0, want 0", name, s)
		}
	}
	// Modules must stay reachable even at the highest fault rate: retries
	// and rollback keep the fleet available (self-healing, not surviving
	// by luck).
	last := res.Points[len(res.Points)-1]
	if last.Availability.Mean < 0.99 {
		t.Errorf("availability at max rate = %v", last.Availability.Mean)
	}
}

func TestReconfigUnderFaultsDeterministicAcrossParallelism(t *testing.T) {
	r1, err := faultsSweep(exp.RunContext{Seed: 5, Trials: 3, Parallelism: 1, FaultRate: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := faultsSweep(exp.RunContext{Seed: 5, Trials: 3, Parallelism: 4, FaultRate: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r4) {
		t.Errorf("results differ across -parallel settings:\n1: %+v\n4: %+v", r1, r4)
	}
	// And at full rate the chaos actually bites: faults were injected.
	if r1.Points[len(r1.Points)-1].InjectedFaults.Mean == 0 {
		t.Error("no faults injected at rate 1.0")
	}
}
