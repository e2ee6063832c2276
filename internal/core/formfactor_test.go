package core

import (
	"math"
	"testing"
)

func TestScaledModelReducesToCalibratedBase(t *testing.T) {
	// At the prototype operating point the extended model must equal the
	// paper-calibrated 1.52 W exactly.
	p := ScaledPeakPowerW(156_250_000, 64, 1, 1, Node28)
	if math.Abs(p-1.52) > 0.001 {
		t.Errorf("base point = %.3f W, want 1.52", p)
	}
}

func TestEngineCapacity(t *testing.T) {
	// 64b @ 156.25 MHz: 9 cycles/frame → 17.36 Mpps → 11.67 G wire rate.
	c := EngineCapacityGbps(156_250_000, 64)
	if math.Abs(c-11.67) > 0.05 {
		t.Errorf("capacity = %.2f Gb/s", c)
	}
	// Monotone in width and clock.
	if EngineCapacityGbps(156_250_000, 128) <= c {
		t.Error("capacity not monotone in width")
	}
	if EngineCapacityGbps(312_500_000, 64) <= c {
		t.Error("capacity not monotone in clock")
	}
}

func TestPlan10GFitsSFPPlusAt28nm(t *testing.T) {
	// The paper's prototype point: 10G in an SFP+ on mature silicon.
	p := PlanFormFactor(10, Node28)
	if !p.Feasible {
		t.Fatal("10G infeasible")
	}
	if p.Module.Name != "SFP+" {
		t.Errorf("10G module = %s, want SFP+", p.Module.Name)
	}
	if p.PeakW > 3 {
		t.Errorf("10G peak = %.2f W", p.PeakW)
	}
}

func TestPlan100GNeedsBiggerModule(t *testing.T) {
	// §5.3/§6: 100G does not fit the SFP envelope even on newer silicon;
	// QSFP28-or-larger is required.
	for _, node := range []ProcessNode{Node28, Node16, Node7} {
		p := PlanFormFactor(100, node)
		if !p.Feasible {
			if node == Node7 {
				t.Errorf("100G infeasible even at 7nm: %+v", p)
			}
			continue
		}
		if p.Module.Name == "SFP+" || p.Module.Name == "SFP28" {
			t.Errorf("100G at %s claimed to fit %s", node.Name, p.Module.Name)
		}
	}
}

func TestPlan400GNeedsDoubleDensity(t *testing.T) {
	p := PlanFormFactor(400, Node7)
	if !p.Feasible {
		t.Fatalf("400G infeasible at 7nm: %+v", p)
	}
	if p.Module.Name != "QSFP-DD" && p.Module.Name != "OSFP" {
		t.Errorf("400G module = %s, want QSFP-DD/OSFP", p.Module.Name)
	}
	// And 28 nm silicon cannot do it inside any envelope.
	p28 := PlanFormFactor(400, Node28)
	if p28.Feasible && p28.Module.Name != "OSFP" && p28.Module.Name != "QSFP-DD" {
		t.Errorf("400G at 28nm = %+v", p28)
	}
}

func TestNewerSiliconLowersPower(t *testing.T) {
	a := PlanFormFactor(100, Node16)
	b := PlanFormFactor(100, Node7)
	if a.Feasible && b.Feasible && b.PeakW >= a.PeakW {
		t.Errorf("7nm plan (%.2f W) not below 16nm (%.2f W)", b.PeakW, a.PeakW)
	}
}

func TestPlannerPrefersLowestPower(t *testing.T) {
	// For 25G at 28nm the planner must pick some config with capacity
	// ≥ 25 and not waste power (e.g. not 1024b × 4 engines).
	p := PlanFormFactor(25, Node28)
	if !p.Feasible {
		t.Fatal("25G infeasible at 28nm")
	}
	if p.CapacityGbps < 25 {
		t.Errorf("capacity = %.1f", p.CapacityGbps)
	}
	// Any strictly larger config must not be cheaper.
	bigger := ScaledPeakPowerW(p.ClockHz, p.DatapathBits*2, p.Engines, 1, Node28)
	if bigger < p.PeakW {
		t.Errorf("planner missed a cheaper config: %.2f vs %.2f", bigger, p.PeakW)
	}
}

func TestLanesFor(t *testing.T) {
	cases := map[float64]int{10: 1, 25: 1, 50: 2, 100: 4, 200: 4, 400: 8}
	for rate, want := range cases {
		if got := lanesFor(rate); got != want {
			t.Errorf("lanesFor(%v) = %d, want %d", rate, got, want)
		}
	}
}
