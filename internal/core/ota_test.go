package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"flexsfp/internal/bitstream"
	"flexsfp/internal/flash"
	"flexsfp/internal/hls"
	"flexsfp/internal/netsim"
)

// TestRepushAllocatesNoImageCopy: re-pushing a signed 2 MiB image into a
// slot that already holds one copies nothing image-sized. Decode aliases
// the pushed bytes, the golden check reads only the old image's header,
// and erase refills the slot's sectors in place.
func TestRepushAllocatesNoImageCopy(t *testing.T) {
	key := []byte("fleet-key")
	m := NewModule(Config{Sim: netsim.New(1), Shell: hls.TwoWayCore, AuthKey: key})
	payload := make([]byte, 2<<20)
	rand.New(rand.NewSource(1)).Read(payload)
	enc, err := (&bitstream.Bitstream{AppName: "nat", AppVersion: 1, Device: "MPF200T",
		ClockKHz: 156250, DatapathBits: 64, Payload: payload}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	signed := bitstream.Sign(enc, key)
	const slot = 2
	first, err := m.InstallSigned(slot, signed)
	if err != nil {
		t.Fatal(err)
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := ^uint64(0)
	for range 3 { // the smallest reading screens out other goroutines
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		dt, err := m.InstallSigned(slot, signed)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if dt != first {
			t.Fatalf("re-push took %v of flash time, first push %v", dt, first)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 64<<10 {
		t.Errorf("re-push of a %d B image allocated %d B, want < 64 KiB", len(signed), least)
	}
	addr, _ := flash.SlotAddr(slot)
	if got, _, _ := m.Flash.Read(addr, len(enc)); !bytes.Equal(got, enc) {
		t.Error("slot does not hold the pushed image")
	}
}
