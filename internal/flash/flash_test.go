package flash

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"flexsfp/internal/bitstream"
	"flexsfp/internal/runner"
)

func TestFactoryFresh(t *testing.T) {
	d := New()
	data, dt, err := d.Read(0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if dt != 16*ReadTimePerByte {
		t.Errorf("read time = %v", dt)
	}
	for _, b := range data {
		if b != 0xff {
			t.Fatal("fresh flash not erased")
		}
	}
}

func TestProgramReadBack(t *testing.T) {
	d := New()
	want := []byte("hello flash")
	if _, err := d.ProgramPage(PageSize*3, want); err != nil {
		t.Fatal(err)
	}
	got, _, err := d.Read(PageSize*3, len(want))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("read back %q", got)
	}
}

func TestNORSemantics(t *testing.T) {
	d := New()
	if _, err := d.ProgramPage(0, []byte{0x0f}); err != nil {
		t.Fatal(err)
	}
	// Clearing more bits is fine (0x0f -> 0x0e keeps programmed zeros).
	if _, err := d.ProgramPage(0, []byte{0x0e}); err != nil {
		t.Fatalf("clearing additional bits: %v", err)
	}
	// Setting a cleared bit back to 1 must fail.
	if _, err := d.ProgramPage(0, []byte{0xff}); !errors.Is(err, ErrNotErased) {
		t.Errorf("err = %v, want ErrNotErased", err)
	}
	// Erase restores the sector.
	if _, err := d.EraseSector(0); err != nil {
		t.Fatal(err)
	}
	got, _, _ := d.Read(0, 1)
	if got[0] != 0xff {
		t.Error("erase did not restore 0xff")
	}
}

func TestPageBoundary(t *testing.T) {
	d := New()
	// Crossing a page boundary is rejected.
	if _, err := d.ProgramPage(PageSize-4, make([]byte, 8)); !errors.Is(err, ErrBadAlignment) {
		t.Errorf("err = %v, want ErrBadAlignment", err)
	}
	// Oversized single program is rejected.
	if _, err := d.ProgramPage(0, make([]byte, PageSize+1)); !errors.Is(err, ErrBadAlignment) {
		t.Errorf("err = %v, want ErrBadAlignment", err)
	}
}

func TestEraseAlignment(t *testing.T) {
	d := New()
	if _, err := d.EraseSector(100); !errors.Is(err, ErrBadAlignment) {
		t.Errorf("err = %v, want ErrBadAlignment", err)
	}
}

func TestOutOfRange(t *testing.T) {
	d := New()
	if _, _, err := d.Read(SizeBytes-4, 8); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("read: %v", err)
	}
	if _, err := d.EraseSector(SizeBytes); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("erase: %v", err)
	}
	if _, err := d.ProgramPage(-1, []byte{1}); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("program: %v", err)
	}
}

func TestWriteBlobTiming(t *testing.T) {
	d := New()
	data := bytes.Repeat([]byte{0x5a}, SectorSize+100) // 2 sectors, 17 pages
	dt, err := d.WriteBlob(0, data)
	if err != nil {
		t.Fatal(err)
	}
	want := 2*SectorEraseTime + 17*PageProgramTime
	if dt != want {
		t.Errorf("WriteBlob time = %v, want %v", dt, want)
	}
	got, _, _ := d.Read(0, len(data))
	if !bytes.Equal(got, data) {
		t.Error("blob read back mismatch")
	}
}

func TestWriteBlobOverwrite(t *testing.T) {
	d := New()
	if _, err := d.WriteBlob(0, bytes.Repeat([]byte{0xaa}, 100)); err != nil {
		t.Fatal(err)
	}
	// Overwriting works because WriteBlob erases first.
	if _, err := d.WriteBlob(0, bytes.Repeat([]byte{0x55}, 100)); err != nil {
		t.Fatal(err)
	}
	got, _, _ := d.Read(0, 1)
	if got[0] != 0x55 {
		t.Error("overwrite failed")
	}
}

func TestCorruptRange(t *testing.T) {
	d := New()
	rng := rand.New(rand.NewSource(1))
	if err := d.CorruptRange(0, 64, func() byte { return byte(rng.Intn(256)) }); err != nil {
		t.Fatal(err)
	}
	got, _, _ := d.Read(0, 64)
	all := true
	for _, b := range got {
		if b != 0xff {
			all = false
		}
	}
	if all {
		t.Error("corruption had no effect")
	}
}

func encodedSample(t *testing.T, name string, flags uint16) []byte {
	t.Helper()
	bs := &bitstream.Bitstream{
		AppName: name, Device: "MPF200T", ClockKHz: 156250, DatapathBits: 64,
		Flags: flags, Payload: bytes.Repeat([]byte{1}, 500),
	}
	enc, err := bs.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func TestSlotStoreLoad(t *testing.T) {
	d := New()
	enc := encodedSample(t, "acl", 0)
	if _, err := d.StoreBitstream(1, enc); err != nil {
		t.Fatal(err)
	}
	bs, _, err := d.LoadBitstream(1)
	if err != nil {
		t.Fatal(err)
	}
	if bs.AppName != "acl" {
		t.Errorf("AppName = %q", bs.AppName)
	}
	if _, _, err := d.LoadBitstream(2); !errors.Is(err, ErrSlotEmpty) {
		t.Errorf("empty slot: %v", err)
	}
}

func TestGoldenSlotLocked(t *testing.T) {
	d := New()
	golden := encodedSample(t, "golden-nat", bitstream.FlagGolden)
	if _, err := d.StoreBitstream(0, golden); err != nil {
		t.Fatal(err)
	}
	other := encodedSample(t, "acl", 0)
	if _, err := d.StoreBitstream(0, other); !errors.Is(err, ErrGoldenLocked) {
		t.Errorf("err = %v, want ErrGoldenLocked", err)
	}
	// Other slots remain writable.
	if _, err := d.StoreBitstream(3, other); err != nil {
		t.Fatal(err)
	}
	slots := d.ListSlots()
	if slots[0] != "golden-nat" || slots[3] != "acl" || slots[1] != "" {
		t.Errorf("slots = %v", slots)
	}
}

func TestSlotBounds(t *testing.T) {
	d := New()
	if _, err := d.StoreBitstream(NumSlots, nil); !errors.Is(err, ErrBadSlot) {
		t.Errorf("err = %v, want ErrBadSlot", err)
	}
	if _, _, err := d.LoadBitstream(-1); !errors.Is(err, ErrBadSlot) {
		t.Errorf("err = %v, want ErrBadSlot", err)
	}
}

func TestSlotCorruptionDetected(t *testing.T) {
	d := New()
	enc := encodedSample(t, "nat", 0)
	if _, err := d.StoreBitstream(1, enc); err != nil {
		t.Fatal(err)
	}
	addr, _ := SlotAddr(1)
	rng := rand.New(rand.NewSource(2))
	if err := d.CorruptRange(addr+80, 8, func() byte { return byte(rng.Intn(255)) }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.LoadBitstream(1); !errors.Is(err, ErrSlotEmpty) {
		t.Errorf("corrupted slot loaded: %v", err)
	}
}

// Property: program-then-read returns exactly what was written to a fresh
// region, for any page-sized payload.
func TestProgramReadProperty(t *testing.T) {
	f := func(page uint16, data []byte) bool {
		if len(data) > PageSize {
			data = data[:PageSize]
		}
		d := New()
		addr := (int(page) % 1024) * PageSize
		if _, err := d.ProgramPage(addr, data); err != nil {
			return false
		}
		got, _, err := d.Read(addr, len(data))
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{Rand: runner.NewRand(2)}); err != nil {
		t.Error(err)
	}
}
