package faults

import (
	"bytes"
	"errors"
	"testing"

	"flexsfp/internal/bitstream"
	"flexsfp/internal/flash"
	"flexsfp/internal/mgmt"
	"flexsfp/internal/netsim"
)

func TestInjectorDeterminism(t *testing.T) {
	rates := Rates{ConnDrop: 0.3, Stall: 0.2, Corrupt: 0.1}
	a := New(42, rates)
	b := New(42, rates)
	for i := 0; i < 1000; i++ {
		if a.Roll(0.5) != b.Roll(0.5) {
			t.Fatalf("draw %d diverged between same-seed injectors", i)
		}
	}
	c := New(43, rates)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Roll(0.5) == c.Roll(0.5) {
			same++
		}
	}
	if same == 1000 {
		t.Error("different seeds produced identical draw sequences")
	}
}

func TestScaledClamps(t *testing.T) {
	r := Rates{ConnDrop: 0.4, Stall: 0.6, Corrupt: 1.0}
	s := r.Scaled(3)
	if s.ConnDrop != 1 || s.Stall != 1 || s.Corrupt != 1 {
		t.Errorf("Scaled(3) = %+v", s)
	}
	z := r.Scaled(0)
	if z != (Rates{}) {
		t.Errorf("Scaled(0) = %+v", z)
	}
}

func TestTransportPassthroughAtZeroRates(t *testing.T) {
	in := New(1, Rates{})
	calls := 0
	tr := in.WrapTransport(mgmt.TransportFunc(func(req []byte) ([]byte, error) {
		calls++
		return append([]byte("echo:"), req...), nil
	}))
	for i := 0; i < 100; i++ {
		resp, err := tr.Do([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp, []byte{'e', 'c', 'h', 'o', ':', byte(i)}) {
			t.Fatalf("response corrupted with all rates zero: %x", resp)
		}
	}
	if calls != 100 || in.Stats().Total() != 0 {
		t.Errorf("calls=%d faults=%d", calls, in.Stats().Total())
	}
}

func TestTransportConnDropAmbiguity(t *testing.T) {
	in := New(7, Rates{ConnDrop: 1})
	landed := 0
	tr := in.WrapTransport(mgmt.TransportFunc(func(req []byte) ([]byte, error) {
		landed++
		return req, nil
	}))
	const n = 200
	for i := 0; i < n; i++ {
		if _, err := tr.Do([]byte{1}); !errors.Is(err, ErrConnDropped) {
			t.Fatalf("err = %v, want ErrConnDropped", err)
		}
	}
	if got := in.Stats().ConnDrops; got != n {
		t.Errorf("ConnDrops = %d, want %d", got, n)
	}
	// Roughly half the dropped requests must still have reached the agent:
	// that ambiguity is what the resumable client exists for.
	if landed == 0 || landed == n {
		t.Errorf("landed = %d of %d; want a mix of lost-request and lost-response", landed, n)
	}
}

func TestTransportStallAndCorrupt(t *testing.T) {
	in := New(3, Rates{Stall: 1})
	tr := in.WrapTransport(mgmt.TransportFunc(func(req []byte) ([]byte, error) {
		t.Fatal("stalled request reached the inner transport")
		return nil, nil
	}))
	if _, err := tr.Do([]byte{1}); !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}

	in2 := New(3, Rates{Corrupt: 1})
	orig := []byte{0xAA, 0xBB, 0xCC, 0xDD}
	tr2 := in2.WrapTransport(mgmt.TransportFunc(func(req []byte) ([]byte, error) {
		return append([]byte(nil), orig...), nil
	}))
	resp, err := tr2.Do([]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(resp, orig) {
		t.Error("response not corrupted at Corrupt=1")
	}
	diff := 0
	for i := range resp {
		for b := 0; b < 8; b++ {
			if (resp[i]^orig[i])>>uint(b)&1 == 1 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Errorf("corruption flipped %d bits, want exactly 1", diff)
	}
	if in2.Stats().Corruptions != 1 {
		t.Errorf("Corruptions = %d", in2.Stats().Corruptions)
	}
}

func TestPowerCutCorruptsSlot(t *testing.T) {
	dev := flash.New()
	addr, err := flash.SlotAddr(2)
	if err != nil {
		t.Fatal(err)
	}
	blob := bytes.Repeat([]byte{0xFF, 0x00, 0x5A}, 4096)
	if _, err := dev.WriteBlob(addr, blob); err != nil {
		t.Fatal(err)
	}
	in := New(11, Rates{})
	if err := in.PowerCut(dev, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	got, _, err := dev.Read(addr, len(blob))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, blob) {
		t.Error("power cut left the slot intact")
	}
	// NOR power-cut corruption only clears bits; it never sets them.
	for i := range got {
		if got[i]&^blob[i] != 0 {
			t.Fatalf("byte %d gained bits: %02x -> %02x", i, blob[i], got[i])
		}
	}
	if in.Stats().PowerCuts != 1 {
		t.Errorf("PowerCuts = %d", in.Stats().PowerCuts)
	}
	if err := in.PowerCut(dev, 99, 0.5); err == nil {
		t.Error("power cut on a bogus slot succeeded")
	}
}

func TestFlapLinkDropsWhileDown(t *testing.T) {
	sim := netsim.New(1)
	delivered := 0
	link := netsim.NewLink(sim, 10_000_000_000, 0, func([]byte) { delivered++ })
	in := New(17, Rates{})
	in.FlapLink(sim, link, 100*netsim.Microsecond, 200*netsim.Microsecond)

	frame := make([]byte, 64)
	send := func() { link.Send(append([]byte(nil), frame...)) }
	sim.ScheduleDetached(50*netsim.Microsecond, send)  // before the flap
	sim.ScheduleDetached(150*netsim.Microsecond, send) // while down
	sim.ScheduleDetached(400*netsim.Microsecond, send) // after recovery
	sim.Run()

	if delivered != 2 {
		t.Errorf("delivered = %d, want 2", delivered)
	}
	st := link.Stats()
	if st.DownDrops != 1 || st.Flaps != 1 {
		t.Errorf("stats = %+v", st)
	}
	if !link.Send(append([]byte(nil), frame...)) {
		t.Error("link still down after the flap window")
	}
	if in.Stats().LinkFlaps != 1 {
		t.Errorf("LinkFlaps = %d", in.Stats().LinkFlaps)
	}
}

func testSigned(t *testing.T, key []byte) []byte {
	t.Helper()
	bs := &bitstream.Bitstream{
		AppName: "nat", AppVersion: 3, Device: "MPF200T",
		ClockKHz: 156_250, DatapathBits: 64,
		Payload: bytes.Repeat([]byte{0xA5}, 256),
	}
	enc, err := bs.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return bitstream.Sign(enc, key)
}

func TestTamperSignedModes(t *testing.T) {
	key := []byte("fleet-key")
	// The receiver-side pipeline, as core.InstallSigned runs it: verify
	// the HMAC, decode (magic/CRC), then check freshness against the
	// running version.
	check := func(signed []byte) error {
		body, err := bitstream.Verify(signed, key)
		if err != nil {
			return err
		}
		bs, err := bitstream.Decode(body)
		if err != nil {
			return err
		}
		return bs.VerifyFreshness(3)
	}
	good := testSigned(t, key)
	if err := check(good); err != nil {
		t.Fatalf("pristine image rejected: %v", err)
	}

	cases := []struct {
		name string
		mode TamperMode
		want error
	}{
		{"crc", TamperCRC, bitstream.ErrBadCRC},
		{"truncate", TamperTruncate, bitstream.ErrBadMAC},
		{"wrong-key", TamperWrongKey, bitstream.ErrBadMAC},
		{"stale", TamperStale, bitstream.ErrStaleVersion},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := New(23, Rates{})
			bad := in.TamperSigned(good, key, tc.mode)
			if bytes.Equal(bad, good) {
				t.Fatal("tampering left the blob unchanged")
			}
			if err := check(bad); !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
			if in.Stats().Tampers != 1 {
				t.Errorf("Tampers = %d", in.Stats().Tampers)
			}
		})
	}
}
