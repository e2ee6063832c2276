package flash

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"flexsfp/internal/bitstream"
	"flexsfp/internal/netsim"
)

// refProgramPage is ProgramPage as a plain byte loop: check every byte,
// then AND every byte. It is the oracle the word-wise version must match.
func refProgramPage(d *Device, addr int, data []byte) (netsim.Duration, error) {
	if addr < 0 || addr+len(data) > SizeBytes {
		return 0, fmt.Errorf("%w: program [%d,%d)", ErrOutOfRange, addr, addr+len(data))
	}
	if len(data) == 0 {
		return 0, nil
	}
	if len(data) > PageSize || addr/PageSize != (addr+len(data)-1)/PageSize {
		return 0, fmt.Errorf("%w: program crosses page boundary at %d (+%d)", ErrBadAlignment, addr, len(data))
	}
	cells := d.sector(addr)
	off := addr % SectorSize
	for i, b := range data {
		if cells[off+i]&b != b {
			return 0, fmt.Errorf("%w: at %d", ErrNotErased, addr+i)
		}
	}
	for i, b := range data {
		cells[off+i] &= b
	}
	d.Programs++
	return PageProgramTime, nil
}

// FuzzProgramPageVsRef runs ProgramPage and the byte-loop oracle on two
// devices whose cells around the target page hold the same arbitrary
// bytes. Both must return the same duration and error (naming the same
// address), leave every cell untouched on error, and leave identical cells
// on success.
func FuzzProgramPageVsRef(f *testing.F) {
	ones := bytes.Repeat([]byte{0xff}, PageSize)
	f.Add([]byte(nil), []byte("hello flash"), uint8(3), uint16(0))
	f.Add([]byte{0x0f}, ones[:8], uint8(0), uint16(0))                    // one word, every byte bad
	f.Add([]byte{0xff, 0xff, 0xff, 0xfe}, ones[:13], uint8(1), uint16(5)) // bad byte in a word
	f.Add([]byte{0xff, 0xfe}, ones[:PageSize], uint8(2), uint16(0))       // full page, bad at 1
	f.Add(bytes.Repeat([]byte{0xff}, 300), append(ones[:250:250], 0x7f, 1, 2), uint8(4), uint16(0))
	f.Add([]byte{0xa5, 0x5a}, []byte{0x01, 0x02, 0x04}, uint8(5), uint16(253)) // 3-byte tail at the end
	f.Add([]byte{0xff}, ones[:9], uint8(6), uint16(250))                       // crosses the page
	f.Add([]byte{0x00}, []byte{}, uint8(7), uint16(17))                        // empty
	f.Add([]byte{0xf0, 0xff}, ones[:PageSize], uint8(8), uint16(256))          // next page, all ones
	// The first 32 bytes program, byte 63 fails: nothing may be written.
	f.Add(append(ones[:63:63], 0xfe), append(make([]byte, 32), ones[:32]...), uint8(9), uint16(0))
	f.Fuzz(func(t *testing.T, pre, data []byte, page uint8, off uint16) {
		if len(data) > PageSize {
			data = data[:PageSize]
		}
		// The window covers the target page and its neighbours, so a
		// write that strays out of its page shows as well.
		base := 1 + int(page)%254
		winAddr, winLen := (base-1)*PageSize, 3*PageSize
		addr := base*PageSize + int(off)%(PageSize+1)
		// Both devices start with pre, repeated, ANDed over the window.
		filled := func() *Device {
			d, i := New(), 0
			d.CorruptRange(winAddr, winLen, func() byte {
				if len(pre) == 0 {
					return 0xff
				}
				i++
				return pre[(i-1)%len(pre)]
			})
			return d
		}
		got, want := filled(), filled()
		before, _, _ := want.Read(winAddr, winLen)

		gotDT, gotErr := got.ProgramPage(addr, data)
		wantDT, wantErr := refProgramPage(want, addr, data)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || gotDT != wantDT {
			t.Fatalf("ProgramPage(%d, %x) = %v, %v; oracle %v, %v", addr, data, gotDT, gotErr, wantDT, wantErr)
		}
		for _, target := range []error{ErrNotErased, ErrBadAlignment, ErrOutOfRange} {
			if errors.Is(gotErr, target) != errors.Is(wantErr, target) {
				t.Fatalf("error class: %v vs oracle %v", gotErr, wantErr)
			}
		}
		gotCells, _, _ := got.Read(winAddr, winLen)
		wantCells, _, _ := want.Read(winAddr, winLen)
		if gotErr != nil && !bytes.Equal(gotCells, before) {
			t.Fatalf("failed ProgramPage(%d, %x) changed cells", addr, data)
		}
		if !bytes.Equal(gotCells, wantCells) {
			t.Fatalf("ProgramPage(%d, %x): cells differ from the oracle's", addr, data)
		}
		if got.Programs != want.Programs {
			t.Fatalf("Programs = %d, oracle %d", got.Programs, want.Programs)
		}
	})
}

// TestGoldenLockMatchesLoadRule: StoreBitstream refuses a slot exactly
// when LoadBitstream of its current contents succeeds and is golden.
func TestGoldenLockMatchesLoadRule(t *testing.T) {
	golden := encodedSample(t, "golden-nat", bitstream.FlagGolden)
	badCRC := append([]byte(nil), golden...)
	badCRC[bitstream.HeaderSize+10] ^= 0x40
	// A power cut after the first 40 header bytes: magic, version and
	// the golden flag landed, the length field and the rest did not.
	torn := append(append([]byte(nil), golden[:40]...), bytes.Repeat([]byte{0xff}, len(golden)-40)...)
	cases := []struct {
		name   string
		slot   []byte // nil leaves the slot erased
		locked bool
	}{
		{"empty", nil, false},
		{"valid", encodedSample(t, "acl", 0), false},
		{"golden", golden, true},
		{"golden-bad-crc", badCRC, false},
		{"torn-golden-header", torn, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := New()
			addr, _ := SlotAddr(1)
			if tc.slot != nil {
				if _, err := d.WriteBlob(addr, tc.slot); err != nil {
					t.Fatal(err)
				}
			}
			cur, _, lerr := d.LoadBitstream(1)
			rule := lerr == nil && cur.Golden()
			if rule != tc.locked {
				t.Fatalf("LoadBitstream ok && Golden() = %v, want %v", rule, tc.locked)
			}
			_, err := d.StoreBitstream(1, encodedSample(t, "nat", 0))
			if got := errors.Is(err, ErrGoldenLocked); got != rule {
				t.Errorf("StoreBitstream locked = %v (err %v), want %v", got, err, rule)
			}
		})
	}
}

// TestEraseRefillsInPlace: erasing a programmed sector keeps its cells
// and sets them all to 0xFF; erasing an untouched sector materializes
// nothing.
func TestEraseRefillsInPlace(t *testing.T) {
	d := New()
	if _, err := d.ProgramPage(SectorSize, []byte{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	cells := d.sectors[1]
	for _, addr := range []int{0, SectorSize} {
		if _, err := d.EraseSector(addr); err != nil {
			t.Fatal(err)
		}
	}
	if d.sectors[0] != nil {
		t.Error("erasing an untouched sector materialized it")
	}
	if &d.sectors[1][0] != &cells[0] {
		t.Error("erase replaced a materialized sector")
	}
	if !bytes.Equal(d.sectors[1], bytes.Repeat([]byte{0xff}, SectorSize)) {
		t.Error("erased sector not all 0xFF")
	}
}
