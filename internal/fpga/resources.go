// Package fpga models FPGA devices as resource vectors and provides the
// logic-element normalization and fit-check arithmetic behind the paper's
// Table 1 (NAT resource usage on the MPF200T) and Table 2 (literature
// designs normalized to 4-input logic elements).
//
// The model mirrors Microchip PolarFire accounting: logic is counted in
// 4-input LUTs and flip-flops; on-chip memory comes as uSRAM blocks
// (64×12 b each) and LSRAM blocks (20 kb each). Designs from other vendors
// are normalized to "LE" (4-input logic element) equivalents using the
// conversion factors the paper cites: 1 Xilinx LUT6 ≈ 1.6 LE, 1 Intel
// ALM ≈ 2 LE.
package fpga

import "fmt"

// Memory block geometry (PolarFire).
const (
	// USRAMBits is the capacity of one uSRAM block: 64 words × 12 bits.
	USRAMBits = 64 * 12
	// LSRAMBits is the capacity of one LSRAM block: 20 kb.
	LSRAMBits = 20 * 1024
)

// Resources is a vector of fabric resources, in PolarFire units.
type Resources struct {
	LUT4  int // 4-input LUTs
	FF    int // flip-flops
	USRAM int // 64×12 b blocks
	LSRAM int // 20 kb blocks
	Math  int // 18×18 math (DSP) blocks
}

// Add returns the component-wise sum r + s.
func (r Resources) Add(s Resources) Resources {
	return Resources{
		LUT4:  r.LUT4 + s.LUT4,
		FF:    r.FF + s.FF,
		USRAM: r.USRAM + s.USRAM,
		LSRAM: r.LSRAM + s.LSRAM,
		Math:  r.Math + s.Math,
	}
}

// FitsIn reports whether every component of r is within s.
func (r Resources) FitsIn(s Resources) bool {
	return r.LUT4 <= s.LUT4 && r.FF <= s.FF &&
		r.USRAM <= s.USRAM && r.LSRAM <= s.LSRAM && r.Math <= s.Math
}

func (r Resources) String() string {
	return fmt.Sprintf("LUT4=%d FF=%d uSRAM=%d LSRAM=%d Math=%d",
		r.LUT4, r.FF, r.USRAM, r.LSRAM, r.Math)
}

// Utilization is the percentage of each resource class used on a device.
type Utilization struct {
	LUT4  float64
	FF    float64
	USRAM float64
	LSRAM float64
	Math  float64
}

// Max returns the highest utilization across resource classes.
func (u Utilization) Max() float64 {
	m := u.LUT4
	for _, v := range []float64{u.FF, u.USRAM, u.LSRAM, u.Math} {
		if v > m {
			m = v
		}
	}
	return m
}

func pct(used, avail int) float64 {
	if avail == 0 {
		if used == 0 {
			return 0
		}
		return 100
	}
	return 100 * float64(used) / float64(avail)
}

// USRAMBlocksFor returns the number of uSRAM blocks needed to hold bits.
func USRAMBlocksFor(bits int) int { return ceilDiv(bits, USRAMBits) }

// LSRAMBlocksFor returns the number of LSRAM blocks needed to hold bits.
func LSRAMBlocksFor(bits int) int { return ceilDiv(bits, LSRAMBits) }

func ceilDiv(a, b int) int {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
