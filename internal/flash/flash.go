// Package flash models the FlexSFP's 128 Mb SPI NOR flash (§4.3): sector
// erase / page program / random read with datasheet-class timings,
// operation counters, a slotted layout for holding multiple design
// bitstreams ("the flash memory is such that multiple designs could be
// stored"), and power-cut corruption injection for recovery testing.
//
// NOR semantics are modeled faithfully: programming can only clear bits
// (1→0); an erase sets a whole sector to 0xFF.
package flash

import (
	"encoding/binary"
	"errors"
	"fmt"

	"flexsfp/internal/netsim"
)

// Geometry of the modeled part (Microchip/SST-class 128 Mb SPI NOR).
const (
	SizeBytes  = 128 * 1024 * 1024 / 8 // 128 Mb = 16 MiB
	SectorSize = 4096
	PageSize   = 256
	NumSectors = SizeBytes / SectorSize
)

// Datasheet-class operation timings.
const (
	SectorEraseTime = 25 * netsim.Millisecond
	PageProgramTime = 700 * netsim.Microsecond
	// ReadTimePerByte approximates a 50 MHz SPI bus: ~20 ns/byte.
	ReadTimePerByte = 20 * netsim.Nanosecond
)

// Errors.
var (
	ErrOutOfRange   = errors.New("flash: address out of range")
	ErrNotErased    = errors.New("flash: programming a non-erased cell (program can only clear bits)")
	ErrBadAlignment = errors.New("flash: misaligned operation")
)

// Device is the flash array plus operation counters. The 16 MiB cell array
// is backed lazily, one sector at a time: a nil sector is in the erased
// state (all 0xFF) and costs nothing, so a factory-fresh device — of
// which fleet simulations construct thousands — is a few slice headers
// instead of a 16 MiB allocation.
type Device struct {
	sectors [][]byte // per-sector cells; nil = erased (all 0xFF)

	// Stats.
	Erases   uint64
	Programs uint64
	Reads    uint64
}

// erased is one sector in the erased state, the source every fill copies.
var erased = func() (s [SectorSize]byte) {
	for i := range s {
		s[i] = 0xff
	}
	return s
}()

// New returns a factory-fresh (all 0xFF) device.
func New() *Device {
	return &Device{
		sectors: make([][]byte, NumSectors),
	}
}

// sector materializes and returns the cells of the sector containing
// addr, filling it with the erased pattern on first touch.
func (d *Device) sector(addr int) []byte {
	i := addr / SectorSize
	s := d.sectors[i]
	if s == nil {
		s = make([]byte, SectorSize)
		copy(s, erased[:])
		d.sectors[i] = s
	}
	return s
}

// readInto copies n bytes starting at addr into out without touching the
// stats counters (shared by Read and the slot header peek).
func (d *Device) readInto(out []byte, addr, n int) {
	for n > 0 {
		s := d.sectors[addr/SectorSize]
		off := addr % SectorSize
		run := SectorSize - off
		if run > n {
			run = n
		}
		if s == nil {
			s = erased[:]
		}
		copy(out[:run], s[off:off+run])
		out = out[run:]
		addr += run
		n -= run
	}
}

// Read copies n bytes starting at addr into a fresh slice and returns the
// time the SPI transfer takes.
func (d *Device) Read(addr, n int) ([]byte, netsim.Duration, error) {
	if addr < 0 || n < 0 || addr+n > SizeBytes {
		return nil, 0, fmt.Errorf("%w: read [%d,%d)", ErrOutOfRange, addr, addr+n)
	}
	d.Reads++
	out := make([]byte, n)
	d.readInto(out, addr, n)
	return out, netsim.Duration(n) * ReadTimePerByte, nil
}

// EraseSector erases the sector containing addr (addr must be sector-
// aligned) and returns the erase time. A materialized sector is refilled
// in place, since a store programs it again right after; a nil one stays
// nil.
func (d *Device) EraseSector(addr int) (netsim.Duration, error) {
	if addr < 0 || addr >= SizeBytes {
		return 0, fmt.Errorf("%w: erase at %d", ErrOutOfRange, addr)
	}
	if addr%SectorSize != 0 {
		return 0, fmt.Errorf("%w: erase at %d", ErrBadAlignment, addr)
	}
	if s := d.sectors[addr/SectorSize]; s != nil {
		copy(s, erased[:])
	}
	d.Erases++
	return SectorEraseTime, nil
}

// ProgramPage programs up to PageSize bytes at addr (must not cross a page
// boundary) and returns the program time. Programming a bit from 0 to 1
// fails with ErrNotErased, as on real NOR.
func (d *Device) ProgramPage(addr int, data []byte) (netsim.Duration, error) {
	if addr < 0 || addr+len(data) > SizeBytes {
		return 0, fmt.Errorf("%w: program [%d,%d)", ErrOutOfRange, addr, addr+len(data))
	}
	if len(data) == 0 {
		return 0, nil
	}
	if len(data) > PageSize || addr/PageSize != (addr+len(data)-1)/PageSize {
		return 0, fmt.Errorf("%w: program crosses page boundary at %d (+%d)", ErrBadAlignment, addr, len(data))
	}
	// A page never crosses a sector (SectorSize is a multiple of PageSize).
	off := addr % SectorSize
	cells := d.sector(addr)[off : off+len(data)]
	if i := firstNotErased(cells, data); i >= 0 {
		return 0, fmt.Errorf("%w: at %d", ErrNotErased, addr+i)
	}
	// The whole page passed the check before any cell changes, so a page
	// that fails it writes nothing.
	i := 0
	for ; len(data)-i >= 32; i += 32 {
		c, b := cells[i:i+32], data[i:i+32]
		and64(c[0:8], b[0:8])
		and64(c[8:16], b[8:16])
		and64(c[16:24], b[16:24])
		and64(c[24:32], b[24:32])
	}
	for ; i < len(data); i++ {
		cells[i] &= data[i]
	}
	d.Programs++
	return PageProgramTime, nil
}

// firstNotErased returns the index of the first byte of data that would
// program a 0 bit of cells (as long as data) back to 1, or -1 when every
// byte can be programmed. It checks 32 bytes at a time as four words and
// looks at single bytes only inside a block that fails, or in the tail.
func firstNotErased(cells, data []byte) int {
	i := 0
	for ; len(data)-i >= 32; i += 32 {
		c, b := cells[i:i+32], data[i:i+32]
		if raised(c[0:8], b[0:8])|raised(c[8:16], b[8:16])|raised(c[16:24], b[16:24])|raised(c[24:32], b[24:32]) != 0 {
			break
		}
	}
	for ; i < len(data); i++ {
		if cells[i]&data[i] != data[i] {
			return i
		}
	}
	return -1
}

// raised returns the bits programming the word d over the word c would
// take from 0 back to 1.
func raised(c, d []byte) uint64 {
	w := binary.LittleEndian.Uint64(d)
	return binary.LittleEndian.Uint64(c)&w ^ w
}

// and64 programs the word d into the word c.
func and64(c, d []byte) {
	binary.LittleEndian.PutUint64(c, binary.LittleEndian.Uint64(c)&binary.LittleEndian.Uint64(d))
}

// cellAt returns a pointer to the cell at addr, materializing its sector.
func (d *Device) cellAt(addr int) *byte {
	return &d.sector(addr)[addr%SectorSize]
}

// CorruptRange simulates a power cut mid-program: each byte in [addr,
// addr+n) is partially programmed (random bits cleared) using rnd.
func (d *Device) CorruptRange(addr, n int, rnd func() byte) error {
	if addr < 0 || n < 0 || addr+n > SizeBytes {
		return fmt.Errorf("%w: corrupt [%d,%d)", ErrOutOfRange, addr, addr+n)
	}
	for i := addr; i < addr+n; i++ {
		*d.cellAt(i) &= rnd()
	}
	return nil
}

// WriteBlob erases the covered sectors and programs data at addr (sector-
// aligned), returning the total operation time. This is the primitive the
// reprogramming FSM uses to store a bitstream.
func (d *Device) WriteBlob(addr int, data []byte) (netsim.Duration, error) {
	if addr%SectorSize != 0 {
		return 0, fmt.Errorf("%w: blob at %d", ErrBadAlignment, addr)
	}
	if addr < 0 || addr+len(data) > SizeBytes {
		return 0, fmt.Errorf("%w: blob [%d,%d)", ErrOutOfRange, addr, addr+len(data))
	}
	var total netsim.Duration
	for s := addr; s < addr+len(data); s += SectorSize {
		dt, err := d.EraseSector(s)
		if err != nil {
			return total, err
		}
		total += dt
	}
	for off := 0; off < len(data); off += PageSize {
		end := off + PageSize
		if end > len(data) {
			end = len(data)
		}
		dt, err := d.ProgramPage(addr+off, data[off:end])
		if err != nil {
			return total, err
		}
		total += dt
	}
	return total, nil
}
