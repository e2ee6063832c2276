package bitstream

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// freshTag is the reference: a new HMAC-SHA256 state for every tag.
func freshTag(key, body []byte) []byte {
	m := hmac.New(sha256.New, key)
	m.Write(body)
	return m.Sum(nil)
}

// freshVerdict is what Verify must answer for signed under key.
func freshVerdict(signed, key []byte) bool {
	if len(signed) < macSize {
		return false
	}
	body := signed[:len(signed)-macSize]
	return hmac.Equal(signed[len(signed)-macSize:], freshTag(key, body))
}

// checkVerify compares one Verify call with the fresh computation.
func checkVerify(t testing.TB, signed, key []byte) bool {
	t.Helper()
	body, err := Verify(signed, key)
	want := freshVerdict(signed, key)
	if (err == nil) != want {
		t.Fatalf("Verify(len %d, key len %d) err = %v, fresh HMAC says valid=%v", len(signed), len(key), err, want)
	}
	if err == nil && !bytes.Equal(body, signed[:len(signed)-macSize]) {
		t.Fatalf("Verify returned a body that is not the signed prefix")
	}
	if err != nil && len(signed) >= macSize && !errors.Is(err, ErrBadMAC) {
		t.Fatalf("Verify err = %v, want ErrBadMAC", err)
	}
	return err == nil
}

// TestVerifyMatchesFreshHMAC is the differential wall around the pooled
// keyed state: keys of every length class around the 64-byte block size
// (zero-padded, exactly a block, hashed down), interleaved A, B, A through
// one caller buffer that is scribbled over after every call. Every verdict
// and every tag must equal a fresh hmac.New computation, and an A-signed
// blob must never verify under B — not even right after an A verify left
// an A-keyed state in the pool.
func TestVerifyMatchesFreshHMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	caller := make([]byte, 256) // the caller's key buffer, reused for every key
	as := func(k []byte) []byte { return caller[:copy(caller, k)] }
	scribble := func() {
		for i := range caller {
			caller[i] ^= 0xFF
		}
	}
	for _, n := range []int{0, 1, 32, 64, 65, 200} {
		a, b := random(n), random(n)
		if n == 0 {
			b = random(1) // the only key distinct from the empty key
		}
		for round := 0; round < 4; round++ {
			body := random(rng.Intn(700))
			signedA := Sign(body, as(a))
			scribble()
			if want := append(append([]byte(nil), body...), freshTag(a, body)...); !bytes.Equal(signedA, want) {
				t.Fatalf("key len %d: Sign differs from a fresh HMAC", n)
			}
			signedB := Sign(body, as(b))
			scribble()

			type keyed struct{ key, own, other []byte }
			for _, c := range []keyed{{a, signedA, signedB}, {b, signedB, signedA}, {a, signedA, signedB}} {
				if !checkVerify(t, c.own, as(c.key)) {
					t.Fatalf("key len %d: own signature rejected", n)
				}
				scribble()
				if checkVerify(t, c.other, as(c.key)) {
					t.Fatalf("key len %d: a blob signed under the other key verified", n)
				}
				scribble()
				flipped := append([]byte(nil), c.own...)
				flipped[rng.Intn(len(flipped))] ^= 1 << rng.Intn(8)
				checkVerify(t, flipped, as(c.key))
				scribble()
			}
		}
	}
}

// TestVerifyConcurrentKeys drives the shared keyed state from 8 goroutines
// that each alternate two keys of one length, the way the controller's
// shard workers verify in parallel. Run it under -race.
func TestVerifyConcurrentKeys(t *testing.T) {
	keys := [2][]byte{[]byte("fleet-key-aaaaaaaa"), []byte("fleet-key-bbbbbbbb")}
	body := bytes.Repeat([]byte{0x5A}, 364)
	signed := [2][]byte{Sign(body, keys[0]), Sign(body, keys[1])}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g + i) % 2
				if _, err := Verify(signed[k], keys[k]); err != nil {
					errs <- err
					return
				}
				if _, err := Verify(signed[1-k], keys[k]); !errors.Is(err, ErrBadMAC) {
					errs <- errors.New("a blob signed under the other key verified")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// FuzzVerifyVsHMAC: for any key, body and flipped byte, Verify agrees with
// a fresh HMAC on the pristine blob (valid) and on the flipped one.
func FuzzVerifyVsHMAC(f *testing.F) {
	f.Add([]byte("fleet-key"), []byte("body"), uint(3))
	f.Add([]byte{}, []byte{}, uint(0))
	f.Add(bytes.Repeat([]byte{7}, 65), bytes.Repeat([]byte{1}, 300), uint(299))
	f.Fuzz(func(t *testing.T, key, body []byte, flip uint) {
		signed := Sign(body, key)
		if !checkVerify(t, signed, key) {
			t.Fatal("pristine blob rejected")
		}
		flipped := append([]byte(nil), signed...)
		flipped[flip%uint(len(flipped))] ^= 0x80
		checkVerify(t, flipped, key)
	})
}

// TestVerifyZeroAlloc pins the reuse of the keyed state: verifying under a
// key already seen allocates nothing (a fresh hmac.New costs 6 allocations
// and 512 B on this image size).
func TestVerifyZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	key := []byte("fleet-ota-key")
	signed := Sign(bytes.Repeat([]byte{0xA5}, 364-macSize), key)
	var err error
	if n := testing.AllocsPerRun(200, func() { _, err = Verify(signed, key) }); n != 0 {
		t.Errorf("Verify allocates %v times per call, want 0", n)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool
