package hls

import (
	"errors"
	"testing"
	"testing/quick"

	"flexsfp/internal/bitstream"
	"flexsfp/internal/fpga"
	"flexsfp/internal/packet"
	"flexsfp/internal/ppe"
	"flexsfp/internal/runner"
)

// natProgram mirrors the §5.1 case study: static one-to-one source NAT
// with a 32,768-flow source-IP hash table, parsed eth+ipv4, checksum
// fixup, two match-action stages.
func natProgram() *ppe.Program {
	return &ppe.Program{
		Name:        "nat",
		Version:     1,
		ParseLayers: []packet.LayerType{packet.LayerTypeEthernet, packet.LayerTypeIPv4},
		Tables: []ppe.TableSpec{
			{Name: "nat", Kind: ppe.TableExact, KeyBits: 32, ValueBits: 32, Size: 32768},
		},
		Actions: []ppe.ActionSpec{
			{Kind: ppe.ActionHash, Bits: 32},
			{Kind: ppe.ActionRewrite, Bits: 32},
			{Kind: ppe.ActionChecksum},
		},
		Stages:  2,
		Handler: ppe.HandlerFunc(func(ctx *ppe.Ctx) ppe.Verdict { return ppe.VerdictPass }),
	}
}

func withinPct(got, want int, pct float64) bool {
	diff := float64(got - want)
	if diff < 0 {
		diff = -diff
	}
	return diff <= float64(want)*pct/100
}

func TestNATAppMatchesTable1(t *testing.T) {
	// Paper Table 1, "NAT app" row: 9122 LUT / 11294 FF / 36 uSRAM /
	// 160 LSRAM. Logic within 1%; memory blocks exact (they follow from
	// table geometry, not calibration).
	r := EstimateProgram(natProgram(), 64)
	if !withinPct(r.LUT4, 9122, 1) {
		t.Errorf("LUT4 = %d, want 9122 ±1%%", r.LUT4)
	}
	if !withinPct(r.FF, 11294, 1) {
		t.Errorf("FF = %d, want 11294 ±1%%", r.FF)
	}
	if r.USRAM != 36 {
		t.Errorf("uSRAM = %d, want 36", r.USRAM)
	}
	if r.LSRAM != 160 {
		t.Errorf("LSRAM = %d, want 160", r.LSRAM)
	}
}

// TestNATTableSizeLSRAMCurve sweeps the NAT table size: the LSRAM cost
// strictly grows with capacity (the "promising potential for larger
// tables" note in §5.1).
func TestNATTableSizeLSRAMCurve(t *testing.T) {
	prev := 0
	for _, size := range []int{4096, 8192, 16384, 32768, 65536} {
		p := natProgram()
		p.Tables[0].Size = size
		r := EstimateProgram(p, 64)
		if r.LSRAM <= prev {
			t.Errorf("%d entries: LSRAM = %d, not above %d", size, r.LSRAM, prev)
		}
		prev = r.LSRAM
	}
}

func TestShellMatchesTable1Rows(t *testing.T) {
	rows := ShellBreakdown(OneWayFilter)
	want := []struct {
		name string
		res  fpga.Resources
	}{
		{"Mi-V", fpga.Resources{LUT4: 8696, FF: 376, USRAM: 6, LSRAM: 4}},
		{"Elec. I/F", fpga.Resources{LUT4: 6824, FF: 6924, USRAM: 118}},
		{"Opt. I/F", fpga.Resources{LUT4: 6813, FF: 6924, USRAM: 118}},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for i, w := range want {
		if rows[i].Name != w.name || rows[i].Resources != w.res {
			t.Errorf("row %d = %s %v, want %s %v", i, rows[i].Name, rows[i].Resources, w.name, w.res)
		}
	}
}

func TestUsedRowMatchesTable1(t *testing.T) {
	// Paper "Used" row: 31455 LUT / 25518 FF / 278 uSRAM / 164 LSRAM,
	// i.e. 16% / 13% / 15% / 26% of the MPF200T.
	total := EstimateProgram(natProgram(), 64).Add(ShellResources(OneWayFilter))
	if !withinPct(total.LUT4, 31455, 1) {
		t.Errorf("Used LUT4 = %d, want 31455 ±1%%", total.LUT4)
	}
	if !withinPct(total.FF, 25518, 1) {
		t.Errorf("Used FF = %d, want 25518 ±1%%", total.FF)
	}
	if total.USRAM != 278 {
		t.Errorf("Used uSRAM = %d, want 278", total.USRAM)
	}
	if total.LSRAM != 164 {
		t.Errorf("Used LSRAM = %d, want 164", total.LSRAM)
	}
	u := fpga.MPF200T.Utilization(total)
	if int(u.LUT4) != 16 || int(u.FF) != 13 || int(u.USRAM) != 15 || int(u.LSRAM) != 26 {
		t.Errorf("utilization = %.0f/%.0f/%.0f/%.0f %%, want 16/13/15/26",
			u.LUT4, u.FF, u.USRAM, u.LSRAM)
	}
}

func TestShellGrowthSublinear(t *testing.T) {
	// §4.1: Two-Way-Core hardware overhead grows, but not linearly.
	one := ShellResources(OneWayFilter)
	two := ShellResources(TwoWayCore)
	if two.LUT4 <= one.LUT4 {
		t.Error("Two-Way-Core shell not larger")
	}
	if float64(two.LUT4) > 1.3*float64(one.LUT4) {
		t.Errorf("Two-Way-Core shell grew %.1fx, expected sublinear growth",
			float64(two.LUT4)/float64(one.LUT4))
	}
	active := ShellResources(ActiveCore)
	if active.LUT4 <= two.LUT4 {
		t.Error("ActiveCore shell not larger than Two-Way-Core")
	}
}

func TestCompileNATOnMPF200T(t *testing.T) {
	d, err := Compile(natProgram(), Options{
		Device:       fpga.MPF200T,
		Shell:        OneWayFilter,
		ClockHz:      156_250_000,
		DatapathBits: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Fit.Fits {
		t.Error("NAT does not fit MPF200T")
	}
	if d.Fit.Limiting != "LSRAM" {
		t.Errorf("limiting = %s, want LSRAM", d.Fit.Limiting)
	}
	if d.AchievableClockMHz < 156.25 {
		t.Errorf("achievable clock %.1f MHz < 156.25", d.AchievableClockMHz)
	}
	bs := d.Bitstream
	if bs == nil || bs.AppName != "nat" || bs.ClockKHz != 156250 || bs.DatapathBits != 64 {
		t.Fatalf("bitstream = %+v", bs)
	}
	m, err := ParseManifest(bs.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "nat" || m.Stages != 2 || len(m.Tables) != 1 || m.Tables[0].Size != 32768 {
		t.Errorf("manifest = %+v", m)
	}
	if m.AppLSRAM != 160 {
		t.Errorf("manifest LSRAM = %d", m.AppLSRAM)
	}
}

func TestCompileGoldenFlag(t *testing.T) {
	d, err := Compile(natProgram(), Options{
		ClockHz: 156_250_000, DatapathBits: 64, Golden: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Bitstream.Golden() {
		t.Error("golden flag not set")
	}
	if d.Target.Name != "MPF200T" {
		t.Errorf("default device = %s", d.Target.Name)
	}
}

func TestCompileRejectsOversizedDesign(t *testing.T) {
	p := natProgram()
	// Four 32k-entry tables: 640 LSRAM > 616 available.
	p.Tables = append(p.Tables,
		ppe.TableSpec{Name: "t2", KeyBits: 32, ValueBits: 32, Size: 32768},
		ppe.TableSpec{Name: "t3", KeyBits: 32, ValueBits: 32, Size: 32768},
		ppe.TableSpec{Name: "t4", KeyBits: 32, ValueBits: 32, Size: 32768},
	)
	_, err := Compile(p, Options{ClockHz: 156_250_000, DatapathBits: 64})
	if !errors.Is(err, ErrDoesNotFit) {
		t.Errorf("err = %v, want ErrDoesNotFit", err)
	}
}

func TestCompileRejectsBadClock(t *testing.T) {
	_, err := Compile(natProgram(), Options{ClockHz: 0, DatapathBits: 64})
	if !errors.Is(err, ErrBadOptions) {
		t.Errorf("err = %v, want ErrBadOptions", err)
	}
}

func TestCompileTimingFailure(t *testing.T) {
	// 450 MHz exceeds the MPF200T ceiling regardless of utilization.
	_, err := Compile(natProgram(), Options{ClockHz: 450_000_000, DatapathBits: 64})
	if !errors.Is(err, ErrTimingFailure) {
		t.Errorf("err = %v, want ErrTimingFailure", err)
	}
}

func TestWiderDatapathCostsMore(t *testing.T) {
	// §5.3 scalability: widening the datapath requires a more powerful
	// FPGA. The estimator must reflect that monotonically.
	p := natProgram()
	r64 := EstimateProgram(p, 64)
	r256 := EstimateProgram(p, 256)
	r512 := EstimateProgram(p, 512)
	if r256.LUT4 <= r64.LUT4 || r512.LUT4 <= r256.LUT4 {
		t.Errorf("LUT4 not monotone in width: %d/%d/%d", r64.LUT4, r256.LUT4, r512.LUT4)
	}
	// Table memory is width-independent (same entries).
	if r512.LSRAM != r64.LSRAM {
		t.Errorf("LSRAM changed with width: %d vs %d", r64.LSRAM, r512.LSRAM)
	}
}

func TestTernaryTableCost(t *testing.T) {
	// Ternary entries burn fabric registers: 64 five-tuple entries must
	// cost far more FF per entry than the exact table but still fit.
	p := &ppe.Program{
		Name:        "acl",
		ParseLayers: []packet.LayerType{packet.LayerTypeEthernet, packet.LayerTypeIPv4, packet.LayerTypeTCP},
		Tables: []ppe.TableSpec{
			{Name: "rules", Kind: ppe.TableTernary, KeyBits: 104, ValueBits: 8, Size: 64},
		},
		Actions: []ppe.ActionSpec{{Kind: ppe.ActionCounterBank, Count: 64}},
		Stages:  2,
		Handler: ppe.HandlerFunc(func(ctx *ppe.Ctx) ppe.Verdict { return ppe.VerdictPass }),
	}
	r := EstimateProgram(p, 64)
	if r.LSRAM != 0 {
		t.Errorf("ternary table should not use LSRAM, got %d", r.LSRAM)
	}
	d, err := Compile(p, Options{ClockHz: 156_250_000, DatapathBits: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Fit.Fits {
		t.Error("64-entry ACL should fit")
	}
}

func TestRoundTripThroughBitstream(t *testing.T) {
	d, err := Compile(natProgram(), Options{
		ClockHz: 156_250_000, DatapathBits: 64, Config: []byte("static-map-v1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := d.Bitstream.Encode()
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("k")
	signed := bitstream.Sign(enc, key)
	body, err := bitstream.Verify(signed, key)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := bitstream.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ParseManifest(bs.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if string(m.Config) != "static-map-v1" {
		t.Errorf("config = %q", m.Config)
	}
}

func TestShellString(t *testing.T) {
	if OneWayFilter.String() != "one-way-filter" || TwoWayCore.String() != "two-way-core" ||
		ActiveCore.String() != "active-core" {
		t.Error("shell names wrong")
	}
}

// Property: adding structure never decreases any resource class —
// estimates are monotone in tables, actions, stages, and parse depth.
func TestEstimateMonotoneProperty(t *testing.T) {
	base := func() *ppe.Program {
		return &ppe.Program{
			Name:        "m",
			ParseLayers: []packet.LayerType{packet.LayerTypeEthernet},
			Stages:      1,
			Handler:     ppe.HandlerFunc(func(ctx *ppe.Ctx) ppe.Verdict { return ppe.VerdictPass }),
		}
	}
	geq := func(a, b fpga.Resources) bool {
		return a.LUT4 >= b.LUT4 && a.FF >= b.FF && a.USRAM >= b.USRAM && a.LSRAM >= b.LSRAM
	}
	f := func(stages, layers, tblSize uint8, keyBits, actBits uint8) bool {
		p := base()
		p.Stages = int(stages)%4 + 1
		for i := 0; i < int(layers)%4; i++ {
			p.ParseLayers = append(p.ParseLayers, packet.LayerTypeIPv4)
		}
		r0 := EstimateProgram(p, 64)

		// Add a table: every class must be ≥.
		withTable := *p
		withTable.Tables = append([]ppe.TableSpec(nil), p.Tables...)
		withTable.Tables = append(withTable.Tables, ppe.TableSpec{
			Name: "t", KeyBits: int(keyBits)%128 + 1, ValueBits: 32, Size: int(tblSize)%1024 + 1,
		})
		if !geq(EstimateProgram(&withTable, 64), r0) {
			return false
		}

		// Add an action.
		withAction := *p
		withAction.Actions = append([]ppe.ActionSpec(nil), p.Actions...)
		withAction.Actions = append(withAction.Actions, ppe.ActionSpec{
			Kind: ppe.ActionRewrite, Bits: int(actBits)%256 + 1,
		})
		if !geq(EstimateProgram(&withAction, 64), r0) {
			return false
		}

		// Add a stage.
		withStage := *p
		withStage.Stages++
		return geq(EstimateProgram(&withStage, 64), r0)
	}
	if err := quick.Check(f, &quick.Config{Rand: runner.NewRand(5)}); err != nil {
		t.Error(err)
	}
}
