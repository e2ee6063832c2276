package packet

import (
	"os"
	"strings"
	"sync"
)

// BufferSize is the capacity of every pooled frame buffer: a 1518-byte
// frame plus room for the largest encapsulation or telemetry shim an app
// pushes in place.
const BufferSize = 2048

// Every datapath frame lives in one buffer from this pool, from the
// generator to the sink that ends its life. Whoever holds the frame when
// it is dropped, consumed or delivered calls PutBuffer, exactly once; an
// app that grows or shrinks a frame does so in place with Splice. Buffers
// are fixed-size array pointers so Get and Put are allocation-free (a
// *[N]byte fits in the interface word). The pool is shared by every
// simulator and is safe across the parallel runner: a frame's bytes are
// always written before they are read, so recycling cannot perturb
// deterministic results.
var bufferPool = sync.Pool{New: func() any { return new([BufferSize]byte) }}

// poison is set in test binaries: PutBuffer overwrites what it releases,
// so a read after release sees 0xa5 bytes instead of the frame it
// expected and every test doubles as a use-after-release check. A test
// binary is recognized by the name go test gives it, not by
// testing.Testing, so production binaries do not link package testing.
var poison = strings.HasSuffix(os.Args[0], ".test") || strings.HasSuffix(os.Args[0], ".test.exe")

// poisonPattern is what PutBuffer copies over a released buffer in a test
// binary. A byte loop over BufferSize bytes costs about 40 block copies,
// more than the code a benchmark of a release path measures. It is nil in
// production binaries.
var poisonPattern = func() *[BufferSize]byte {
	if !poison {
		return nil
	}
	p := new([BufferSize]byte)
	for i := range p {
		p[i] = 0xa5
	}
	return p
}()

// GetBuffer returns a frame buffer of length n, recycled when possible.
// A frame larger than BufferSize gets a plain allocation, which PutBuffer
// then ignores.
func GetBuffer(n int) []byte {
	if n > BufferSize {
		return make([]byte, n)
	}
	a := bufferPool.Get().(*[BufferSize]byte)
	return a[:n:BufferSize]
}

// PutBuffer ends a frame's life. The pool recognizes its own buffers by
// their exact capacity, so any frame may be released — a buffer that did
// not come from GetBuffer is left to the garbage collector. After
// PutBuffer the caller must not touch the slice again.
func PutBuffer(b []byte) {
	if cap(b) != BufferSize {
		return
	}
	a := (*[BufferSize]byte)(b[:BufferSize])
	if poison {
		*a = *poisonPattern
	}
	bufferPool.Put(a)
}

// Splice replaces the del bytes of frame b at off with ins bytes, which
// the caller then writes, and returns the reshaped frame: the bytes before
// off stay put and the tail after off+del moves to off+ins. It works in
// b's own buffer when cap(b) allows; otherwise the frame moves into a pool
// buffer and b is released.
func Splice(b []byte, off, del, ins int) []byte {
	n := len(b) - del + ins
	tail := b[off+del:]
	if n <= cap(b) {
		out := b[:n]
		copy(out[off+ins:], tail)
		return out
	}
	out := GetBuffer(n)
	copy(out, b[:off])
	copy(out[off+ins:], tail)
	PutBuffer(b)
	return out
}
