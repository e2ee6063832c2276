package fpga

import (
	"testing"
	"testing/quick"

	"flexsfp/internal/runner"
)

func TestResourcesAddScale(t *testing.T) {
	a := Resources{LUT4: 1, FF: 2, USRAM: 3, LSRAM: 4, Math: 5}
	b := Resources{LUT4: 10, FF: 20, USRAM: 30, LSRAM: 40, Math: 50}
	got := a.Add(b)
	want := Resources{LUT4: 11, FF: 22, USRAM: 33, LSRAM: 44, Math: 55}
	if got != want {
		t.Errorf("Add = %v, want %v", got, want)
	}
}

func TestBlockSizing(t *testing.T) {
	// The paper's NAT table: 32,768 flows × 100 bits = 160 LSRAM blocks.
	if got := LSRAMBlocksFor(32768 * 100); got != 160 {
		t.Errorf("LSRAMBlocksFor(NAT table) = %d, want 160", got)
	}
	if got := USRAMBlocksFor(769); got != 2 {
		t.Errorf("USRAMBlocksFor(769) = %d, want 2", got)
	}
	if got := USRAMBlocksFor(0); got != 0 {
		t.Errorf("USRAMBlocksFor(0) = %d, want 0", got)
	}
	if got := LSRAMBlocksFor(-5); got != 0 {
		t.Errorf("LSRAMBlocksFor(-5) = %d, want 0", got)
	}
}

func TestMPF200TMatchesPaperAvailRow(t *testing.T) {
	// Table 1 "Avail." row: 192408 / 192408 / 1764 / 616.
	c := MPF200T.Capacity
	if c.LUT4 != 192408 || c.FF != 192408 || c.USRAM != 1764 || c.LSRAM != 616 {
		t.Errorf("MPF200T capacity = %v", c)
	}
	if MPF200T.BRAMKbits != 13300 {
		t.Errorf("BRAMKbits = %d, want 13300", MPF200T.BRAMKbits)
	}
	if MPF200T.ProcessNm != 28 {
		t.Errorf("ProcessNm = %d, want 28 (mature node per §5.3)", MPF200T.ProcessNm)
	}
}

func TestUtilizationAndFit(t *testing.T) {
	// The paper's "Used" row: 31455 LUT / 25518 FF / 278 uSRAM / 164 LSRAM
	// → 16% / 13% / 15% / 26%.
	used := Resources{LUT4: 31455, FF: 25518, USRAM: 278, LSRAM: 164}
	u := MPF200T.Utilization(used)
	cases := []struct {
		name string
		got  float64
		want float64
	}{
		{"LUT4", u.LUT4, 16}, {"FF", u.FF, 13}, {"uSRAM", u.USRAM, 15}, {"LSRAM", u.LSRAM, 26},
	}
	for _, c := range cases {
		// The paper truncates percentages (278/1764 = 15.8% prints as 15%).
		if int(c.got) != int(c.want) {
			t.Errorf("%s utilization = %.1f%%, want ≈%.0f%%", c.name, c.got, c.want)
		}
	}
	rep := MPF200T.Fit(used)
	if !rep.Fits {
		t.Error("NAT design should fit MPF200T")
	}
	if rep.Limiting != "LSRAM" {
		t.Errorf("limiting resource = %s, want LSRAM", rep.Limiting)
	}
}

func TestFitOverflow(t *testing.T) {
	huge := Resources{LUT4: 1 << 20}
	rep := MPF200T.Fit(huge)
	if rep.Fits {
		t.Error("oversized design reported as fitting")
	}
	if rep.Limiting != "LUT4" {
		t.Errorf("limiting = %s, want LUT4", rep.Limiting)
	}
}

func TestSmallestFitting(t *testing.T) {
	small := Resources{LUT4: 50000, FF: 40000, USRAM: 100, LSRAM: 100}
	d, err := SmallestFitting(small)
	if err != nil || d.Name != "MPF100T" {
		t.Errorf("SmallestFitting = %v, %v", d, err)
	}
	big := Resources{LUT4: 400000}
	d, err = SmallestFitting(big)
	if err != nil || d.Name != "MPF500T" {
		t.Errorf("SmallestFitting(big) = %v, %v", d, err)
	}
	if _, err := SmallestFitting(Resources{LUT4: 1 << 22}); err == nil {
		t.Error("impossible design got a device")
	}
}

func TestNormalizationFactors(t *testing.T) {
	// Table 2 conversions.
	cases := []struct {
		design string
		wantLE int // paper's ≈ value, thousands
	}{
		{"FlowBlaze (1 stage)", 115},
		{"Pigasus", 416},
		{"hXDP (1 core)", 109},
		{"ClickNP IPSec GW", 388},
	}
	designs := LiteratureDesigns()
	for i, c := range cases {
		le := designs[i].NormalizedLE()
		gotK := (le + 500) / 1000
		// The paper rounds its ≈ values inconsistently (truncation vs
		// rounding); accept ±1k.
		if gotK < c.wantLE-1 || gotK > c.wantLE+1 {
			t.Errorf("%s: normalized LE = %dk, want ≈%dk", c.design, gotK, c.wantLE)
		}
	}
}

func TestTable2FitVerdicts(t *testing.T) {
	// Who fits the MPF200T: only hXDP (1 core) fits both logic and BRAM.
	// FlowBlaze fits logic but not BRAM (14,148 kb > 13,300 kb).
	want := map[string]struct {
		fits     bool
		limiting string
	}{
		"FlowBlaze (1 stage)": {false, "BRAM"},
		"Pigasus":             {false, "logic+BRAM"},
		"hXDP (1 core)":       {true, ""},
		"ClickNP IPSec GW":    {false, "logic+BRAM"},
	}
	for _, d := range LiteratureDesigns() {
		w := want[d.Name]
		fits, limiting := d.FitsDevice(MPF200T)
		if fits != w.fits || limiting != w.limiting {
			t.Errorf("%s: fits=%v limiting=%q, want fits=%v limiting=%q",
				d.Name, fits, limiting, w.fits, w.limiting)
		}
	}
}

func TestTimingModelPaperOperatingPoints(t *testing.T) {
	// NAT design: 16% utilization (LUT-wise; LSRAM dominates at 26% but
	// congestion follows logic), 64-bit datapath → must close 156.25 MHz.
	if !MPF200T.ClockFeasible(156.25, 0.26, 64) {
		t.Error("NAT operating point infeasible")
	}
	// Two-Way-Core: double clock, same width → still feasible per §5.3.
	if !MPF200T.ClockFeasible(312.5, 0.26, 64) {
		t.Error("Two-Way-Core clock infeasible")
	}
	// A 512-bit datapath at 90% utilization cannot hit 400 MHz.
	if MPF200T.ClockFeasible(400, 0.9, 512) {
		t.Error("unrealistic operating point reported feasible")
	}
}

func TestAchievableClockMonotonicity(t *testing.T) {
	f := func(u1, u2 float64, w1, w2 uint16) bool {
		// Normalize inputs.
		a, b := abs01(u1), abs01(u2)
		if a > b {
			a, b = b, a
		}
		wa, wb := int(w1)%1024+64, int(w2)%1024+64
		if wa > wb {
			wa, wb = wb, wa
		}
		// More utilization or more width never increases the clock.
		return MPF200T.AchievableClockMHz(b, wa) <= MPF200T.AchievableClockMHz(a, wa)+1e-9 &&
			MPF200T.AchievableClockMHz(a, wb) <= MPF200T.AchievableClockMHz(a, wa)+1e-9
	}
	if err := quick.Check(f, &quick.Config{Rand: runner.NewRand(3)}); err != nil {
		t.Error(err)
	}
}

func abs01(v float64) float64 {
	if v < 0 {
		v = -v
	}
	for v > 1 {
		v /= 10
	}
	return v
}

func TestFitsInProperty(t *testing.T) {
	f := func(a, b uint16, c, d, e uint8) bool {
		r := Resources{LUT4: int(a), FF: int(b), USRAM: int(c), LSRAM: int(d), Math: int(e)}
		// r always fits in r, and r+1LUT never fits in r.
		bigger := r.Add(Resources{LUT4: 1})
		return r.FitsIn(r) && !bigger.FitsIn(r)
	}
	if err := quick.Check(f, &quick.Config{Rand: runner.NewRand(4)}); err != nil {
		t.Error(err)
	}
}
