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
	if got := DataRateFromBaud(LineRateBaud); !approx(got, 10e9, 1) {
		t.Errorf("data rate = %v", got)
	}
	// 14.88 Mpps at 64 bytes.
	if got := LineRatePPS(DataRateBps, 64); !approx(got, 14_880_952.38, 1) {
		t.Errorf("64B pps = %v", got)
	}
	// 812.7 kpps at 1518 bytes.
	if got := LineRatePPS(DataRateBps, 1518); !approx(got, 812_743.8, 1) {
		t.Errorf("1518B pps = %v", got)
	}
	if got := WireEfficiency(64); !approx(got, 64.0/84.0, 1e-12) {
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

func TestFiberLinkBudget(t *testing.T) {
	f := DefaultSRLink(0.3) // 300 m
	// -2 dBm launch - 0.9 dB fiber - 1 dB connectors = -3.9 dBm.
	if got := f.RxPowerDBm(-2); !approx(got, -3.9, 0.01) {
		t.Errorf("rx power = %v", got)
	}
	if !f.Up(-2) {
		t.Error("300m SR link should close")
	}
	// A long span at 850 nm does not close.
	long := DefaultSRLink(5)
	if long.Up(-2) {
		t.Error("5 km multimode link should not close")
	}
	if m := f.MarginDB(-2); !approx(m, -3.9+11.1, 0.01) {
		t.Errorf("margin = %v", m)
	}
}

func TestDegradedLaserKillsLink(t *testing.T) {
	l := NewLaser()
	f := DefaultSRLink(0.3)
	if !f.Up(l.OutputPowerDBm()) {
		t.Fatal("healthy link down")
	}
	l.Degradation = 0.95 // -13 dB
	if f.Up(l.OutputPowerDBm()) {
		t.Error("link up at 95% laser degradation")
	}
}

func TestDDMThresholdEvaluation(t *testing.T) {
	th := DefaultThresholds()
	healthy := DDM{TemperatureC: 45, VccVolts: 3.3, TxBiasMA: 6, TxPowerDBm: -2, RxPowerDBm: -4}
	if f := th.Evaluate(healthy); f != 0 {
		t.Errorf("healthy flags = %b", f)
	}
	hot := healthy
	hot.TemperatureC = 72
	if f := th.Evaluate(hot); f&FlagTempWarn == 0 || f&FlagTempAlarm != 0 {
		t.Errorf("warm flags = %b", f)
	}
	hot.TemperatureC = 80
	if f := th.Evaluate(hot); f&FlagTempAlarm == 0 {
		t.Errorf("hot flags = %b", f)
	}
	dim := healthy
	dim.TxPowerDBm = -8
	if f := th.Evaluate(dim); f&FlagTxPowerAlarm == 0 {
		t.Errorf("dim flags = %b", f)
	}
}

func TestDiagnoseDistinguishesLaserFromDriver(t *testing.T) {
	th := DefaultThresholds()
	cases := []struct {
		name string
		d    DDM
		want Fault
	}{
		{"healthy", DDM{TxBiasMA: 6, TxPowerDBm: -2, RxPowerDBm: -4}, FaultNone},
		{"driver", DDM{TxBiasMA: 0.1, TxPowerDBm: -40, RxPowerDBm: -4}, FaultDriver},
		{"laser-dead", DDM{TxBiasMA: 9, TxPowerDBm: -40, RxPowerDBm: -4}, FaultLaserDead},
		{"laser-degrading-power", DDM{TxBiasMA: 8, TxPowerDBm: -5.5, RxPowerDBm: -4}, FaultLaserDegrading},
		{"laser-degrading-bias", DDM{TxBiasMA: 11, TxPowerDBm: -4, RxPowerDBm: -4}, FaultLaserDegrading},
		{"fiber", DDM{TxBiasMA: 6, TxPowerDBm: -2, RxPowerDBm: -20}, FaultRemoteOrFiber},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Diagnose(c.d, th, 6.0); got != c.want {
				t.Errorf("Diagnose = %v, want %v", got, c.want)
			}
		})
	}
}

func TestFaultString(t *testing.T) {
	if FaultLaserDegrading.String() != "laser-degrading" || FaultNone.String() != "healthy" {
		t.Error("fault names wrong")
	}
}

// Property: link margin decreases monotonically with fiber length.
func TestMarginMonotoneProperty(t *testing.T) {
	f := func(l1, l2 float64) bool {
		a, b := math.Abs(l1), math.Abs(l2)
		for a > 50 {
			a /= 10
		}
		for b > 50 {
			b /= 10
		}
		if a > b {
			a, b = b, a
		}
		return DefaultSRLink(b).MarginDB(-2) <= DefaultSRLink(a).MarginDB(-2)+1e-9
	}
	if err := quick.Check(f, &quick.Config{Rand: runner.NewRand(12)}); err != nil {
		t.Error(err)
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
