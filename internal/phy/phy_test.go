package phy

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"flexsfp/internal/runner"
)

func approx(got, want, tol float64) bool { return math.Abs(got-want) <= tol }

func TestLineRateIdentities(t *testing.T) {
	// 64b/66b over 10.3125 GBd is exactly 10 Gb/s.
	if DataRateBps != 10e9 {
		t.Errorf("data rate = %v", DataRateBps)
	}
	// 14.88 Mpps at 64 bytes.
	if got := LineRatePPS(DataRateBps, 64); !approx(got, 14_880_952.38, 1) {
		t.Errorf("64B pps = %v", got)
	}
	// 812.7 kpps at 1518 bytes.
	if got := LineRatePPS(DataRateBps, 1518); !approx(got, 812_743.8, 1) {
		t.Errorf("1518B pps = %v", got)
	}
	if got := GoodputBps(DataRateBps, 64) / DataRateBps; !approx(got, 64.0/84.0, 1e-12) {
		t.Errorf("efficiency(64) = %v", got)
	}
	if got := GoodputBps(DataRateBps, 1518); got <= 9.8e9 || got >= 10e9 {
		t.Errorf("goodput(1518) = %v, want just under 10G", got)
	}
}

func TestRequiredClock(t *testing.T) {
	// One direction, 64-bit datapath: 9 cycles × 14.88 Mpps = 133.9 MHz,
	// which is why 156.25 MHz suffices (§5.1).
	one := RequiredClockHz(DataRateBps, 64, 1)
	if one > 156_250_000 {
		t.Errorf("one-way required clock %v exceeds 156.25 MHz", one)
	}
	// Two directions need more than 156.25 MHz but not more than double
	// (§4.1: "increase the operating frequency").
	two := RequiredClockHz(DataRateBps, 64, 2)
	if two <= 156_250_000 || two > 312_500_000 {
		t.Errorf("two-way required clock = %v", two)
	}
	// A 512-bit datapath at 100G: 2 cycles × 148.8 Mpps = 297.6 MHz.
	hundred := RequiredClockHz(10*DataRateBps, 512, 1)
	if hundred > 400e6 {
		t.Errorf("100G/512b required clock %v exceeds PolarFire ceiling", hundred)
	}
}

func TestLaserHealthy(t *testing.T) {
	l := NewLaser()
	if !approx(l.OutputPowerDBm(), -2.0, 0.01) {
		t.Errorf("healthy power = %v", l.OutputPowerDBm())
	}
	if !approx(l.EffectiveBiasMilliAmps(), 6.0, 0.01) {
		t.Errorf("healthy bias = %v", l.EffectiveBiasMilliAmps())
	}
}

func TestLaserDegradation(t *testing.T) {
	l := NewLaser()
	l.Degradation = 0.5
	// Half power = -3 dB.
	if !approx(l.OutputPowerDBm(), -5.0, 0.05) {
		t.Errorf("half-degraded power = %v, want ≈-5 dBm", l.OutputPowerDBm())
	}
	if l.EffectiveBiasMilliAmps() <= 6.0 {
		t.Error("APC loop should raise bias on degradation")
	}
	l.Degradation = 1
	if l.OutputPowerDBm() != -40 {
		t.Errorf("dark laser = %v", l.OutputPowerDBm())
	}
	l.Degradation = 0
	l.Enabled = false
	if l.OutputPowerDBm() != -40 || l.EffectiveBiasMilliAmps() != 0 {
		t.Error("disabled laser still emitting")
	}
}

// Property: dBm/mW conversions round-trip.
func TestDbmRoundTripProperty(t *testing.T) {
	f := func(p float64) bool {
		dbm := math.Mod(math.Abs(p), 30) - 20 // [-20, 10)
		return approx(mwToDbm(dbmToMw(dbm)), dbm, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{Rand: runner.NewRand(13)}); err != nil {
		t.Error(err)
	}
}

func TestEEPROMRoundTrip(t *testing.T) {
	id := Identity{
		VendorName: "FLEXSFP", VendorPN: "FSP-10G-SR-P", VendorRev: "1A",
		VendorSN: "FS2600000042", DateCode: "260706",
		Is10GBaseSR: true, DDMSupported: true,
	}
	page := EncodeEEPROM(id)
	if len(page) != EEPROMSize {
		t.Fatalf("page = %d bytes", len(page))
	}
	got, err := DecodeEEPROM(page)
	if err != nil {
		t.Fatal(err)
	}
	if got != id {
		t.Errorf("decoded = %+v, want %+v", got, id)
	}
}

func TestEEPROMChecksumsDetectCorruption(t *testing.T) {
	page := EncodeEEPROM(Identity{VendorName: "X", Is10GBaseSR: true})
	// Corrupt a base field.
	bad := append([]byte(nil), page...)
	bad[20] ^= 0xff
	if _, err := DecodeEEPROM(bad); !errors.Is(err, ErrEEPROMChecksum) {
		t.Errorf("CC_BASE corruption: %v", err)
	}
	// Corrupt an extended field (serial).
	bad = append([]byte(nil), page...)
	bad[70] ^= 0xff
	if _, err := DecodeEEPROM(bad); !errors.Is(err, ErrEEPROMChecksum) {
		t.Errorf("CC_EXT corruption: %v", err)
	}
}

func TestEEPROMRejectsNonSFP(t *testing.T) {
	page := EncodeEEPROM(Identity{})
	page[0] = 0x0d // QSFP+
	page[63] = sum(page[0:63])
	if _, err := DecodeEEPROM(page); !errors.Is(err, ErrEEPROMIdent) {
		t.Errorf("err = %v", err)
	}
	if _, err := DecodeEEPROM(make([]byte, 10)); !errors.Is(err, ErrEEPROMSize) {
		t.Errorf("short: %v", err)
	}
}
