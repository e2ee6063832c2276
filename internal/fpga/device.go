package fpga

import "fmt"

// Device describes an FPGA part.
type Device struct {
	Name     string
	Family   string
	Capacity Resources
	// LogicElements is the marketing logic-element count (≈ LUT4 count
	// for PolarFire), used for cross-vendor comparisons.
	LogicElements int
	// BRAMKbits is the total on-chip block RAM in kbit as vendors quote
	// it (the paper quotes 13,300 kbit ≈ 13.3 Mb for the MPF200T).
	BRAMKbits int
	// MaxClockMHz is the fabric clock ceiling for well-pipelined designs.
	MaxClockMHz float64
	// ProcessNm is the silicon process node.
	ProcessNm int
	// UnitCostUSD is the approximate per-unit price at 1k-unit volume
	// (the paper quotes ≈$200 for the MPF200T).
	UnitCostUSD float64
	// TypPowerW is the typical fabric power at full activity.
	TypPowerW float64
}

// PolarFire catalog. MPF200T numbers follow the paper's Table 1 "Avail."
// row exactly (192,408 LUT4/FF, 1,764 uSRAM, 616 LSRAM); siblings scale
// per the PolarFire family data sheet.
var (
	MPF100T = Device{
		Name: "MPF100T", Family: "PolarFire",
		Capacity:      Resources{LUT4: 108600, FF: 108600, USRAM: 1008, LSRAM: 352, Math: 336},
		LogicElements: 109000, BRAMKbits: 7600,
		MaxClockMHz: 400, ProcessNm: 28, UnitCostUSD: 130, TypPowerW: 0.5,
	}
	MPF200T = Device{
		Name: "MPF200T", Family: "PolarFire",
		Capacity:      Resources{LUT4: 192408, FF: 192408, USRAM: 1764, LSRAM: 616, Math: 588},
		LogicElements: 192000, BRAMKbits: 13300,
		MaxClockMHz: 400, ProcessNm: 28, UnitCostUSD: 200, TypPowerW: 0.7,
	}
	MPF300T = Device{
		Name: "MPF300T", Family: "PolarFire",
		Capacity:      Resources{LUT4: 299544, FF: 299544, USRAM: 2772, LSRAM: 952, Math: 924},
		LogicElements: 300000, BRAMKbits: 20600,
		MaxClockMHz: 400, ProcessNm: 28, UnitCostUSD: 320, TypPowerW: 1.0,
	}
	MPF500T = Device{
		Name: "MPF500T", Family: "PolarFire",
		Capacity:      Resources{LUT4: 481140, FF: 481140, USRAM: 4440, LSRAM: 1520, Math: 1480},
		LogicElements: 481000, BRAMKbits: 33000,
		MaxClockMHz: 400, ProcessNm: 28, UnitCostUSD: 550, TypPowerW: 1.6,
	}
)

// Catalog lists the modeled PolarFire devices, smallest first.
func Catalog() []Device {
	return []Device{MPF100T, MPF200T, MPF300T, MPF500T}
}

// Utilization returns per-class utilization of r on the device.
func (d Device) Utilization(r Resources) Utilization {
	return Utilization{
		LUT4:  pct(r.LUT4, d.Capacity.LUT4),
		FF:    pct(r.FF, d.Capacity.FF),
		USRAM: pct(r.USRAM, d.Capacity.USRAM),
		LSRAM: pct(r.LSRAM, d.Capacity.LSRAM),
		Math:  pct(r.Math, d.Capacity.Math),
	}
}

// FitReport is the result of checking a design against a device.
type FitReport struct {
	Device      string
	Fits        bool
	Limiting    string // resource class that overflows (or is tightest)
	Utilization Utilization
}

// Fit checks whether r fits on the device and identifies the limiting
// resource class.
func (d Device) Fit(r Resources) FitReport {
	u := d.Utilization(r)
	rep := FitReport{Device: d.Name, Fits: r.FitsIn(d.Capacity), Utilization: u}
	max := -1.0
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"LUT4", u.LUT4}, {"FF", u.FF}, {"uSRAM", u.USRAM},
		{"LSRAM", u.LSRAM}, {"Math", u.Math},
	} {
		if c.v > max {
			max = c.v
			rep.Limiting = c.name
		}
	}
	return rep
}

// SmallestFitting returns the smallest catalog device that fits r.
func SmallestFitting(r Resources) (Device, error) {
	for _, d := range Catalog() {
		if r.FitsIn(d.Capacity) {
			return d, nil
		}
	}
	return Device{}, fmt.Errorf("fpga: no catalog device fits %v", r)
}
