package packet

import (
	"bytes"
	"testing"
)

// TestSplice covers the shapes the apps use — outer headers at 0, VLAN
// tags at 12, INT shims at 14, IP-in-IP's header swap — grown and shrunk
// in a pool buffer (in place), in an exact-capacity buffer (moved into the
// pool when it must grow; the input left untouched and not adopted), and
// past BufferSize (moved, the pool input released).
func TestSplice(t *testing.T) {
	for _, tc := range []struct {
		name             string
		n, off, del, ins int
		pool, inPlace    bool
		releasedSource   bool
	}{
		{name: "encap at 0", n: 100, off: 0, del: 0, ins: 50, pool: true, inPlace: true},
		{name: "decap at 0", n: 150, off: 0, del: 50, ins: 0, pool: true, inPlace: true},
		{name: "vlan push at 12", n: 64, off: 12, del: 0, ins: 4, pool: true, inPlace: true},
		{name: "vlan pop at 12", n: 68, off: 12, del: 4, ins: 0, pool: true, inPlace: true},
		{name: "int push at 14", n: 64, off: 14, del: 0, ins: 20, pool: true, inPlace: true},
		{name: "int pop at 14", n: 84, off: 14, del: 20, ins: 0, pool: true, inPlace: true},
		{name: "ipip decap at 0", n: 98, off: 0, del: 34, ins: 14, pool: true, inPlace: true},
		{name: "encap at 0, exact capacity", n: 100, off: 0, del: 0, ins: 50},
		{name: "vlan push at 12, exact capacity", n: 64, off: 12, del: 0, ins: 4},
		{name: "int pop at 14, exact capacity", n: 84, off: 14, del: 20, ins: 0, inPlace: true},
		{name: "grow past BufferSize", n: BufferSize - 8, off: 0, del: 0, ins: 50, pool: true, releasedSource: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frame := make([]byte, tc.n)
			for i := range frame {
				frame[i] = byte(i*7 + 1)
			}
			b := make([]byte, tc.n)
			if tc.pool {
				b = GetBuffer(tc.n)
			}
			copy(b, frame)

			out := Splice(b, tc.off, tc.del, tc.ins)
			if want := tc.n - tc.del + tc.ins; len(out) != want {
				t.Fatalf("len = %d, want %d", len(out), want)
			}
			if !bytes.Equal(out[:tc.off], frame[:tc.off]) || !bytes.Equal(out[tc.off+tc.ins:], frame[tc.off+tc.del:]) {
				t.Fatal("bytes outside the splice moved wrongly")
			}
			if got := &out[:1][0] == &b[:1][0]; got != tc.inPlace {
				t.Fatalf("in place = %v, want %v", got, tc.inPlace)
			}
			switch {
			case tc.releasedSource:
				// Released buffers are poisoned under test.
				if b[:1][0] != 0xa5 {
					t.Error("the pool input was not released")
				}
				if cap(out) != len(out) {
					t.Errorf("oversized output cap %d, want a plain allocation", cap(out))
				}
			case !tc.inPlace:
				if !bytes.Equal(b, frame) {
					t.Error("the exact-capacity input was modified or adopted by the pool")
				}
				if cap(out) != BufferSize {
					t.Errorf("moved frame cap %d, want a pool buffer", cap(out))
				}
			}
			PutBuffer(out)
		})
	}
}
