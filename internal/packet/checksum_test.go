package packet

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"flexsfp/internal/runner"
)

func TestChecksumRFC1071Example(t *testing.T) {
	// Example from RFC 1071 §3: data 00 01 f2 03 f4 f5 f6 f7 sums to
	// ddf2 (before complement), so the checksum is ^0xddf2 = 0x220d.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != 0x220d {
		t.Errorf("Checksum = %#04x, want 0x220d", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	// Odd byte is padded with a zero byte on the right.
	if Checksum([]byte{0xab}) != Checksum([]byte{0xab, 0x00}) {
		t.Error("odd-length checksum disagrees with zero-padded even length")
	}
}

func TestChecksumEmpty(t *testing.T) {
	if got := Checksum(nil); got != 0xffff {
		t.Errorf("Checksum(nil) = %#04x, want 0xffff", got)
	}
}

// Property: embedding the complement checksum into any even-length message
// makes the whole message sum to zero (the receiver-side verification).
func TestChecksumSelfVerifyProperty(t *testing.T) {
	f := func(data []byte) bool {
		if len(data)%2 == 1 {
			data = append(data, 0)
		}
		msg := make([]byte, len(data)+2)
		copy(msg[2:], data)
		c := Checksum(msg)
		msg[0] = byte(c >> 8)
		msg[1] = byte(c)
		return Checksum(msg) == 0
	}
	if err := quick.Check(f, &quick.Config{Rand: runner.NewRand(8)}); err != nil {
		t.Error(err)
	}
}

func TestTransportChecksumDetectsCorruption(t *testing.T) {
	seg := []byte{0, 53, 0, 99, 0, 12, 0, 0, 1, 2, 3, 4}
	s4, d4 := ip1.As4(), ip2.As4()
	c := TransportChecksum(seg, s4[:], d4[:], IPProtocolUDP)
	seg[6] = byte(c >> 8)
	seg[7] = byte(c)
	if TransportChecksum(seg, s4[:], d4[:], IPProtocolUDP) != 0 {
		t.Fatal("checksum does not self-verify")
	}
	seg[9] ^= 0x40
	if TransportChecksum(seg, s4[:], d4[:], IPProtocolUDP) == 0 {
		t.Error("corruption not detected")
	}
	// Pseudo-header participation: different src IP must break it.
	o4 := ip61.As16()
	_ = o4
	alt := [4]byte{10, 0, 0, 99}
	seg[9] ^= 0x40 // restore
	if TransportChecksum(seg, alt[:], d4[:], IPProtocolUDP) == 0 {
		t.Error("pseudo-header src IP not covered")
	}
}

// sumBytesRef is the word-at-a-time loop sumBytes replaced, kept as the
// oracle: one big-endian uint16 per step, odd last byte padded with zero.
func sumBytesRef(sum uint32, data []byte) uint32 {
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i:]))
	}
	if n%2 == 1 {
		sum += uint32(data[n-1]) << 8
	}
	return sum
}

// checkSumBytes compares sumBytes with the oracle where callers can see a
// difference: after FinishChecksum, from any starting partial sum.
func checkSumBytes(t *testing.T, start uint32, data []byte) {
	t.Helper()
	start &= 0xfffff // a pseudo-header sum: a handful of 16-bit words
	if got, want := FinishChecksum(sumBytes(start, data)), FinishChecksum(sumBytesRef(start, data)); got != want {
		t.Fatalf("len %d start %#x: checksum %#04x, oracle %#04x", len(data), start, got, want)
	}
}

// TestSumBytesMatchesOracle: every length 0–2048 (all tail sizes and both
// unrolled loops), at even and odd offsets into the backing array, over
// random bytes and over all-0xff (every add carries, and the sum is ≡ 0:
// the one place 0 and 0xffff could be confused).
func TestSumBytesMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 2048+8)
	rng.Read(random)
	ones := bytes.Repeat([]byte{0xff}, len(random))
	for n := 0; n <= 2048; n++ {
		off := n % 8
		for _, buf := range [][]byte{random, ones} {
			checkSumBytes(t, 0, buf[off:off+n])
			checkSumBytes(t, rng.Uint32(), buf[off:off+n])
		}
	}
	if Checksum(ones[:64]) != 0 || Checksum(make([]byte, 64)) != 0xffff {
		t.Fatal("all-ones must checksum to 0 and all-zeros to 0xffff")
	}
}

func FuzzSumBytes(f *testing.F) {
	f.Add(uint32(0), 0, []byte{})
	f.Add(uint32(0x1fffe), 1, bytes.Repeat([]byte{0xff}, 41))
	f.Add(uint32(17), 3, []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7, 0x80})
	f.Fuzz(func(t *testing.T, start uint32, off int, data []byte) {
		if off < 0 || off > len(data) {
			off = 0
		}
		checkSumBytes(t, start, data[off:])
		src, dst := []byte{10, 0, 0, 1}, []byte{10, 0, 0, 2}
		want := FinishChecksum(sumBytesRef(pseudoHeaderSum(src, dst, IPProtocolUDP, len(data)), data))
		if got := TransportChecksum(data, src, dst, IPProtocolUDP); got != want {
			t.Fatalf("TransportChecksum %#04x, oracle %#04x", got, want)
		}
	})
}

func BenchmarkChecksum1500(b *testing.B) {
	data := make([]byte, 1500)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		sinkSum = Checksum(data)
	}
}

var sinkSum uint16

// TestFinishChecksumFoldsTwice: a sum of three 16-bit words can reach
// 0x2FFFD, and some totals (0x1FFFF) need a second fold.
func TestFinishChecksumFoldsTwice(t *testing.T) {
	for _, words := range [][3]uint16{{0xffff, 0xffff, 1}, {0xffff, 0xffff, 0xffff}, {0x8000, 0x8000, 0}, {1, 0, 0}} {
		var b [6]byte
		var sum uint32
		for i, w := range words {
			binary.BigEndian.PutUint16(b[2*i:], w)
			sum += uint32(w)
		}
		if got, want := FinishChecksum(sum), Checksum(b[:]); got != want {
			t.Errorf("FinishChecksum(%#x) = %#04x, Checksum = %#04x", sum, got, want)
		}
	}
}
