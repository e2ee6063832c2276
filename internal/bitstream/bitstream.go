// Package bitstream defines the loadable design artifact a FlexSFP boots:
// a header describing the application and its operating point, an opaque
// pipeline-configuration payload produced by the HLS toolchain, a CRC-32
// integrity trailer, and an HMAC-SHA256 authentication wrapper used for
// over-the-network reprogramming (§4.2: "the control plane authenticates
// reconfiguration packets whose payload carries a new bitstream").
package bitstream

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"sync"
)

// Format constants.
var magic = [4]byte{'F', 'S', 'F', 'P'}

// FormatVersion is the current header format version.
const FormatVersion = 1

// Flag bits.
const (
	// FlagGolden marks the factory fallback image; the boot FSM refuses
	// to overwrite the slot holding it.
	FlagGolden uint16 = 1 << 0
)

// CRCSize is the length of the CRC-32 integrity trailer at the end of an
// encoded bitstream (exported for fault injectors that target it).
const CRCSize = 4

const (
	headerSize = 4 + 2 + 2 + 32 + 4 + 16 + 4 + 2 + 2 + 4 // 72 bytes
	crcSize    = CRCSize
	macSize    = sha256.Size
	maxNameLen = 32
	maxDevLen  = 16
	maxPayload = 8 << 20 // fits any slot
	minEncoded = headerSize + crcSize
)

// Errors returned by decoding and verification.
var (
	ErrBadMagic     = errors.New("bitstream: bad magic")
	ErrBadVersion   = errors.New("bitstream: unsupported format version")
	ErrBadCRC       = errors.New("bitstream: CRC mismatch")
	ErrTooShort     = errors.New("bitstream: data too short")
	ErrBadMAC       = errors.New("bitstream: authentication failed")
	ErrTooLarge     = errors.New("bitstream: payload too large")
	ErrBadField     = errors.New("bitstream: invalid field")
	ErrStaleVersion = errors.New("bitstream: stale application version")
)

// Bitstream is a design image.
type Bitstream struct {
	AppName      string
	AppVersion   uint32
	Device       string // target FPGA, e.g. "MPF200T"
	ClockKHz     uint32 // PPE clock (156250 for the 10G NAT design)
	DatapathBits uint16
	Flags        uint16
	Payload      []byte // opaque pipeline configuration
}

// Golden reports whether the image is the factory fallback.
func (b *Bitstream) Golden() bool { return b.Flags&FlagGolden != 0 }

// VerifyFreshness rejects downgrade attacks: an image whose AppVersion is
// below current (the version already running for the same application)
// fails with ErrStaleVersion. Equal versions are accepted (re-push of the
// running image is idempotent).
func (b *Bitstream) VerifyFreshness(current uint32) error {
	if b.AppVersion < current {
		return fmt.Errorf("%w: have v%d, offered v%d", ErrStaleVersion, current, b.AppVersion)
	}
	return nil
}

// Size returns the encoded size in bytes.
func (b *Bitstream) Size() int { return headerSize + len(b.Payload) + crcSize }

// Encode serializes the bitstream with its CRC-32 trailer.
func (b *Bitstream) Encode() ([]byte, error) {
	if len(b.AppName) > maxNameLen {
		return nil, fmt.Errorf("%w: app name %q too long", ErrBadField, b.AppName)
	}
	if len(b.Device) > maxDevLen {
		return nil, fmt.Errorf("%w: device %q too long", ErrBadField, b.Device)
	}
	if len(b.Payload) > maxPayload {
		return nil, ErrTooLarge
	}
	out := make([]byte, headerSize+len(b.Payload)+crcSize)
	copy(out[0:4], magic[:])
	binary.BigEndian.PutUint16(out[4:6], FormatVersion)
	binary.BigEndian.PutUint16(out[6:8], b.Flags)
	copy(out[8:40], b.AppName)
	binary.BigEndian.PutUint32(out[40:44], b.AppVersion)
	copy(out[44:60], b.Device)
	binary.BigEndian.PutUint32(out[60:64], b.ClockKHz)
	binary.BigEndian.PutUint16(out[64:66], b.DatapathBits)
	// out[66:68] reserved.
	binary.BigEndian.PutUint32(out[68:72], uint32(len(b.Payload)))
	copy(out[headerSize:], b.Payload)
	crc := crc32.ChecksumIEEE(out[:headerSize+len(b.Payload)])
	binary.BigEndian.PutUint32(out[headerSize+len(b.Payload):], crc)
	return out, nil
}

// HeaderSize is the length of the fixed encoded header.
const HeaderSize = headerSize

// EncodedLen inspects an encoded header prefix and returns the total
// encoded length (header + payload + CRC trailer). ok is false when the
// prefix cannot be a valid header (too short, bad magic or version, or an
// oversized payload length) — exactly the cases where Decode would fail
// before ever looking at the payload. It lets storage layers read just
// the occupied bytes of a slot instead of the whole region.
func EncodedLen(header []byte) (total int, ok bool) {
	if len(header) < headerSize {
		return 0, false
	}
	if !bytes.Equal(header[0:4], magic[:]) {
		return 0, false
	}
	if binary.BigEndian.Uint16(header[4:6]) != FormatVersion {
		return 0, false
	}
	plen := int(binary.BigEndian.Uint32(header[68:72]))
	if plen > maxPayload {
		return 0, false
	}
	return headerSize + plen + crcSize, true
}

// Check validates an encoded bitstream the way Decode does — magic, format
// version, declared length, CRC-32 — without building the image, and
// returns its AppVersion. A boot path needs exactly that: a verdict and a
// version to compare for freshness. It does not allocate on a valid image.
func Check(encoded []byte) (appVersion uint32, err error) {
	if len(encoded) < minEncoded {
		return 0, ErrTooShort
	}
	if !bytes.Equal(encoded[0:4], magic[:]) {
		return 0, ErrBadMagic
	}
	if v := binary.BigEndian.Uint16(encoded[4:6]); v != FormatVersion {
		return 0, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	plen := int(binary.BigEndian.Uint32(encoded[68:72]))
	if plen > maxPayload {
		return 0, ErrTooLarge
	}
	total := headerSize + plen + crcSize
	if len(encoded) < total {
		return 0, ErrTooShort
	}
	wantCRC := binary.BigEndian.Uint32(encoded[headerSize+plen : total])
	if crc32.ChecksumIEEE(encoded[:headerSize+plen]) != wantCRC {
		return 0, ErrBadCRC
	}
	return binary.BigEndian.Uint32(encoded[40:44]), nil
}

// Decode parses and integrity-checks an encoded bitstream.
func Decode(data []byte) (*Bitstream, error) {
	version, err := Check(data)
	if err != nil {
		return nil, err
	}
	plen := int(binary.BigEndian.Uint32(data[68:72]))
	b := &Bitstream{
		Flags:        binary.BigEndian.Uint16(data[6:8]),
		AppName:      cString(data[8:40]),
		AppVersion:   version,
		Device:       cString(data[44:60]),
		ClockKHz:     binary.BigEndian.Uint32(data[60:64]),
		DatapathBits: binary.BigEndian.Uint16(data[64:66]),
		Payload:      append([]byte(nil), data[headerSize:headerSize+plen]...),
	}
	return b, nil
}

func cString(b []byte) string {
	if i := bytes.IndexByte(b, 0); i >= 0 {
		b = b[:i]
	}
	return string(b)
}

// Sign wraps encoded bitstream bytes with an HMAC-SHA256 tag computed
// under key. The result is what travels over the network. The keyed HMAC
// state behind it is reused across calls under an equal key (see keyedMAC);
// the tag is always computed over the whole of encoded.
func Sign(encoded, key []byte) []byte {
	s := keyedMAC(key)
	defer macPool.Put(s)
	out := make([]byte, len(encoded), len(encoded)+macSize)
	copy(out, encoded)
	s.mac.Write(encoded)
	return s.mac.Sum(out)
}

// Verify checks the HMAC tag of a signed blob and returns the inner
// encoded bitstream bytes (a sub-slice of signed). Every call computes the
// full HMAC of the body and compares the whole tag in constant time; only
// the keyed HMAC state is reused across calls under an equal key, never a
// verdict. It does not allocate once a state for key is pooled.
func Verify(signed, key []byte) ([]byte, error) {
	if len(signed) < macSize {
		return nil, ErrTooShort
	}
	body := signed[:len(signed)-macSize]
	tag := signed[len(signed)-macSize:]
	s := keyedMAC(key)
	defer macPool.Put(s)
	s.mac.Write(body)
	if !hmac.Equal(tag, s.mac.Sum(s.sum[:0])) {
		return nil, ErrBadMAC
	}
	return body, nil
}

// macState is one HMAC-SHA256 state keyed under a private copy of key.
// crypto/hmac saves the padded key states on the first Reset and restores
// them on later ones, so a reused state skips hashing both 64-byte pads.
type macState struct {
	key []byte
	mac hash.Hash
	sum [macSize]byte
}

// macPool holds reset-ready HMAC states. The controller's shard workers
// verify concurrently, so each takes its own state and puts it back.
var macPool sync.Pool

// keyedMAC returns a reset HMAC state for key: a pooled one when its key
// equals key, else a fresh one. The key is copied, so a caller mutating
// its slice afterwards cannot re-key a pooled state.
func keyedMAC(key []byte) *macState {
	if s, ok := macPool.Get().(*macState); ok && subtle.ConstantTimeCompare(s.key, key) == 1 {
		s.mac.Reset()
		return s
	}
	k := append([]byte{}, key...)
	return &macState{key: k, mac: hmac.New(sha256.New, k)}
}
