package bitstream

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"flexsfp/internal/runner"
)

func sample() *Bitstream {
	return &Bitstream{
		AppName:      "nat",
		AppVersion:   3,
		Device:       "MPF200T",
		ClockKHz:     156250,
		DatapathBits: 64,
		Payload:      bytes.Repeat([]byte{0xa5}, 1000),
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	b := sample()
	enc, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != b.Size() {
		t.Errorf("encoded %d bytes, Size() = %d", len(enc), b.Size())
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.AppName != "nat" || got.AppVersion != 3 || got.Device != "MPF200T" ||
		got.ClockKHz != 156250 || got.DatapathBits != 64 {
		t.Errorf("decoded = %+v", got)
	}
	if !bytes.Equal(got.Payload, b.Payload) {
		t.Error("payload corrupted")
	}
	if got.Golden() {
		t.Error("Golden set unexpectedly")
	}
}

func TestGoldenFlag(t *testing.T) {
	b := sample()
	b.Flags = FlagGolden
	enc, _ := b.Encode()
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Golden() {
		t.Error("golden flag lost")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	enc, _ := sample().Encode()
	for _, i := range []int{0, 10, 50, headerSize + 5, len(enc) - 1} {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0xff
		if _, err := Decode(bad); err == nil {
			t.Errorf("corruption at byte %d not detected", i)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); !errors.Is(err, ErrTooShort) {
		t.Errorf("nil: %v", err)
	}
	enc, _ := sample().Encode()
	bad := append([]byte(nil), enc...)
	bad[0] = 'X'
	if _, err := Decode(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("magic: %v", err)
	}
	bad = append([]byte(nil), enc...)
	bad[5] = 99
	if _, err := Decode(bad); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version: %v", err)
	}
	// Truncated payload.
	if _, err := Decode(enc[:len(enc)-10]); !errors.Is(err, ErrTooShort) {
		t.Errorf("truncated: %v", err)
	}
}

func TestEncodeValidation(t *testing.T) {
	b := sample()
	b.AppName = string(bytes.Repeat([]byte{'a'}, 40))
	if _, err := b.Encode(); !errors.Is(err, ErrBadField) {
		t.Errorf("long name: %v", err)
	}
	b = sample()
	b.Device = string(bytes.Repeat([]byte{'d'}, 20))
	if _, err := b.Encode(); !errors.Is(err, ErrBadField) {
		t.Errorf("long device: %v", err)
	}
}

func TestSignVerify(t *testing.T) {
	key := []byte("fleet-secret-0001")
	enc, _ := sample().Encode()
	signed := Sign(enc, key)
	body, err := Verify(signed, key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, enc) {
		t.Error("verified body differs from original")
	}
	if _, err := Verify(signed, []byte("wrong-key")); !errors.Is(err, ErrBadMAC) {
		t.Errorf("wrong key: %v", err)
	}
	tampered := append([]byte(nil), signed...)
	tampered[100] ^= 1
	if _, err := Verify(tampered, key); !errors.Is(err, ErrBadMAC) {
		t.Errorf("tampered: %v", err)
	}
	if _, err := Verify(signed[:10], key); !errors.Is(err, ErrTooShort) {
		t.Errorf("short: %v", err)
	}
}

// Property: Encode/Decode round-trips arbitrary metadata and payloads, and
// Sign/Verify round-trips under the same key.
func TestRoundTripProperty(t *testing.T) {
	f := func(name string, ver uint32, clock uint32, width uint16, payload []byte, key []byte) bool {
		if len(name) > maxNameLen {
			name = name[:maxNameLen]
		}
		// Null bytes terminate the stored string; restrict to printable.
		clean := make([]byte, 0, len(name))
		for _, c := range []byte(name) {
			if c >= 32 && c < 127 {
				clean = append(clean, c)
			}
		}
		b := &Bitstream{
			AppName: string(clean), AppVersion: ver,
			Device: "MPF200T", ClockKHz: clock, DatapathBits: width,
			Payload: payload,
		}
		enc, err := b.Encode()
		if err != nil {
			return false
		}
		signed := Sign(enc, key)
		body, err := Verify(signed, key)
		if err != nil {
			return false
		}
		got, err := Decode(body)
		if err != nil {
			return false
		}
		return got.AppName == string(clean) && got.AppVersion == ver &&
			got.ClockKHz == clock && got.DatapathBits == width &&
			bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{Rand: runner.NewRand(1)}); err != nil {
		t.Error(err)
	}
}
