package bitstream

import (
	"encoding/binary"
	"testing"
)

// checkVectors are the encoded inputs the Decode tests use — a valid
// image, each corruption, each malformed header — plus the length edges.
func checkVectors(t testing.TB) [][]byte {
	t.Helper()
	enc, err := sample().Encode()
	if err != nil {
		t.Fatal(err)
	}
	golden := sample()
	golden.Flags = FlagGolden
	golden.AppVersion = 1 << 31
	goldenEnc, err := golden.Encode()
	if err != nil {
		t.Fatal(err)
	}
	empty, err := (&Bitstream{}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	vs := [][]byte{nil, {}, enc, goldenEnc, empty, enc[:minEncoded-1], enc[:minEncoded],
		enc[:len(enc)-10], enc[:len(enc)-1], append(append([]byte(nil), enc...), 0, 1, 2)}
	for _, i := range []int{0, 5, 10, 41, 50, 70, headerSize + 5, len(enc) - 1} {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0xff
		vs = append(vs, bad)
	}
	huge := append([]byte(nil), enc...)
	binary.BigEndian.PutUint32(huge[68:72], maxPayload+1)
	return append(vs, huge)
}

// agree fails unless Check and Decode return the same verdict on data: both
// accept with the same AppVersion, or both reject with the same error.
func agree(t testing.TB, data []byte) {
	t.Helper()
	version, cerr := Check(data)
	bs, derr := Decode(data)
	switch {
	case (cerr == nil) != (derr == nil):
		t.Fatalf("Check err = %v, Decode err = %v on %d bytes", cerr, derr, len(data))
	case cerr != nil:
		if cerr.Error() != derr.Error() {
			t.Fatalf("Check err = %v, Decode err = %v", cerr, derr)
		}
		if version != 0 {
			t.Fatalf("Check returned version %d with error %v", version, cerr)
		}
	case version != bs.AppVersion:
		t.Fatalf("Check version = %d, Decode version = %d", version, bs.AppVersion)
	}
}

func TestCheckAgreesWithDecode(t *testing.T) {
	for _, v := range checkVectors(t) {
		agree(t, v)
	}
}

func TestCheckDoesNotAllocate(t *testing.T) {
	enc, _ := sample().Encode()
	var version uint32
	if n := testing.AllocsPerRun(100, func() { version, _ = Check(enc) }); n != 0 {
		t.Fatalf("Check allocates %v times per run", n)
	}
	if version != 3 {
		t.Fatalf("version = %d", version)
	}
}

func FuzzCheckVsDecode(f *testing.F) {
	for _, v := range checkVectors(f) {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, data []byte) { agree(t, data) })
}
