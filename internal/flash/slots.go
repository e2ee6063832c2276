package flash

import (
	"errors"
	"fmt"

	"flexsfp/internal/bitstream"
	"flexsfp/internal/netsim"
)

// Slot layout: the 16 MiB array is divided into NumSlots fixed regions.
// Slot 0 conventionally holds the golden (factory fallback) image; the
// boot FSM refuses to overwrite a slot whose stored image carries the
// golden flag.
const (
	NumSlots = 4
	SlotSize = SizeBytes / NumSlots
)

// Slot errors.
var (
	ErrBadSlot      = errors.New("flash: slot index out of range")
	ErrSlotTooSmall = errors.New("flash: bitstream exceeds slot size")
	ErrGoldenLocked = errors.New("flash: slot holds the golden image")
	ErrSlotEmpty    = errors.New("flash: slot holds no valid bitstream")
)

// SlotAddr returns the base address of slot i.
func SlotAddr(i int) (int, error) {
	if i < 0 || i >= NumSlots {
		return 0, fmt.Errorf("%w: %d", ErrBadSlot, i)
	}
	return i * SlotSize, nil
}

// StoreBitstream writes an encoded bitstream into slot i, respecting the
// golden lock, and returns the flash operation time.
func (d *Device) StoreBitstream(i int, encoded []byte) (netsim.Duration, error) {
	addr, err := SlotAddr(i)
	if err != nil {
		return 0, err
	}
	if len(encoded) > SlotSize {
		return 0, fmt.Errorf("%w: %d > %d", ErrSlotTooSmall, len(encoded), SlotSize)
	}
	if d.goldenLocked(i, addr) {
		return 0, fmt.Errorf("%w: slot %d", ErrGoldenLocked, i)
	}
	return d.WriteBlob(addr, encoded)
}

// goldenLocked reports whether slot i (at addr) holds a valid golden
// image. Decode takes Flags from the header bytes, so a header without
// FlagGolden settles it without reading or checking the image; only a
// golden header pays for the full LoadBitstream.
func (d *Device) goldenLocked(i, addr int) bool {
	var hdr [bitstream.HeaderSize]byte
	d.readInto(hdr[:], addr, len(hdr))
	if bitstream.HeaderFlags(hdr[:])&bitstream.FlagGolden == 0 {
		return false
	}
	cur, _, err := d.LoadBitstream(i)
	return err == nil && cur.Golden()
}

// LoadBitstream reads and validates the bitstream in slot i, returning it
// along with the read time.
//
// Only the occupied bytes are transferred: the header is peeked first to
// learn the encoded length, then exactly that many bytes are read. A slot
// whose header is invalid (empty or corrupted) is still charged the
// conservative full-slot scan time the old firmware paid, so boot-path
// timings are unchanged in every case.
func (d *Device) LoadBitstream(i int) (*bitstream.Bitstream, netsim.Duration, error) {
	addr, err := SlotAddr(i)
	if err != nil {
		return nil, 0, err
	}
	var hdr [bitstream.HeaderSize]byte
	d.readInto(hdr[:], addr, len(hdr))
	// Read at least enough for Decode to reach the same verdict it would
	// reach on the full slot (magic/version/length checks need the header
	// plus trailer; a valid header clamped to the slot still yields the
	// same ErrTooShort).
	n := bitstream.HeaderSize + bitstream.CRCSize
	if total, ok := bitstream.EncodedLen(hdr[:]); ok && total <= SlotSize {
		n = total
	}
	raw, dt, err := d.Read(addr, n)
	if err != nil {
		return nil, dt, err
	}
	bs, err := bitstream.Decode(raw)
	if err != nil {
		// Same charge as the historical full-slot scan.
		return nil, netsim.Duration(SlotSize) * ReadTimePerByte, fmt.Errorf("%w: %v", ErrSlotEmpty, err)
	}
	// Charge only for the bytes actually occupied.
	dt = netsim.Duration(bs.Size()) * ReadTimePerByte
	return bs, dt, nil
}

// ListSlots reports, for each slot, the stored app name or "" if empty or
// invalid.
func (d *Device) ListSlots() [NumSlots]string {
	var out [NumSlots]string
	for i := 0; i < NumSlots; i++ {
		if bs, _, err := d.LoadBitstream(i); err == nil {
			out[i] = bs.AppName
		}
	}
	return out
}
