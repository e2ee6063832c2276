package cost

import "testing"

func TestBOMBand(t *testing.T) {
	low, high := BOMTotal(FlexSFPBOM())
	// §5.2: FPGA $200 + transceiver ≈$10 + $50–100 other → ≈$260–310.
	if low < 255 || low > 265 {
		t.Errorf("BOM low = %.0f, want ≈260", low)
	}
	if high < 305 || high > 315 {
		t.Errorf("BOM high = %.0f, want ≈310", high)
	}
	// Table 3's FlexSFP row is the paper's volume estimate ("around $300
	// per unit, with potential reductions toward $250"), and it sits
	// at/below the prototype BOM.
	for _, r := range Table3() {
		if r.Name == "FlexSFP" && r.RawCostHighUSD > high {
			t.Error("production estimate exceeds prototype BOM")
		}
	}
}

func TestTable3PublishedValues(t *testing.T) {
	rows := Table3()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	want := map[string][5]float64{ // rawLow, rawHigh, rawW, pubCostLow, pubW
		"DPU (BF-2)":          {1500, 2000, 75, 300, 15},
		"Many-core (Ag./DSC)": {800, 1200, 25, 100, 5},
		"FPGA (U25/U50)":      {2000, 4000, 60, 200, 8.5},
		"FlexSFP":             {250, 300, 1.5, 250, 1.5},
	}
	for _, r := range rows {
		w, ok := want[r.Name]
		if !ok {
			t.Errorf("unexpected row %q", r.Name)
			continue
		}
		if r.RawCostLowUSD != w[0] || r.RawCostHighUSD != w[1] || r.RawPowerW != w[2] ||
			r.PubPer10GCostLow != w[3] || r.PubPer10GPowerW != w[4] {
			t.Errorf("%s = %+v", r.Name, r)
		}
	}
}

func TestIdealScalingDPU(t *testing.T) {
	for _, r := range Table3() {
		if r.Name != "DPU (BF-2)" {
			continue
		}
		low, high := r.Per10GCost()
		// 1500-2000 over 5 slices = 300-400, the published band exactly.
		if low != 300 || high != 400 {
			t.Errorf("DPU per-10G cost = %.0f-%.0f", low, high)
		}
		if r.Per10GPower() != 15 {
			t.Errorf("DPU per-10G power = %.1f", r.Per10GPower())
		}
	}
}

func TestFlexSFPScalesToItself(t *testing.T) {
	for _, r := range Table3() {
		if r.Name != "FlexSFP" {
			continue
		}
		low, high := r.Per10GCost()
		if low != 250 || high != 300 || r.Per10GPower() != 1.5 {
			t.Errorf("FlexSFP per-10G = %.0f-%.0f / %.1f W", low, high, r.Per10GPower())
		}
	}
}

func TestComputedWithinShapeOfPublished(t *testing.T) {
	// The paper's per-10G numbers for the middle classes mix device
	// bases; computed values must still land within 2x of published
	// (shape, not absolutes).
	for _, r := range Table3() {
		low, _ := r.Per10GCost()
		if low < r.PubPer10GCostLow/2 || low > r.PubPer10GCostLow*2 {
			t.Errorf("%s computed $/10G %.0f vs published %.0f", r.Name, low, r.PubPer10GCostLow)
		}
		w := r.Per10GPower()
		if w < r.PubPer10GPowerW/2 || w > r.PubPer10GPowerW*2 {
			t.Errorf("%s computed W/10G %.1f vs published %.1f", r.Name, w, r.PubPer10GPowerW)
		}
	}
}

func TestHeadlineClaims(t *testing.T) {
	c := EvaluateClaims(Table3())
	// "roughly two-thirds CAPEX saving": FlexSFP ≈$275 vs DPU ≈$1750.
	if c.CAPEXSavingVsDPU < 0.60 || c.CAPEXSavingVsDPU > 0.90 {
		t.Errorf("CAPEX saving = %.2f, want ≈2/3 or better", c.CAPEXSavingVsDPU)
	}
	// "an order-of-magnitude power reduction": even the best SmartNIC
	// class is >2x worse per 10G; the DPU is 10x.
	if c.PowerRatioVsBest < 2 {
		t.Errorf("power ratio vs best SmartNIC = %.1f", c.PowerRatioVsBest)
	}
	var dpu Solution
	for _, r := range Table3() {
		if r.Name == "DPU (BF-2)" {
			dpu = r
		}
	}
	if dpu.Per10GPower()/1.5 < 10 {
		t.Errorf("DPU/FlexSFP power ratio = %.1f, want ≥10", dpu.Per10GPower()/1.5)
	}
}
