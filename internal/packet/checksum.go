package packet

import (
	"encoding/binary"
	"math/bits"
)

// Checksum implements the Internet checksum (RFC 1071) over data.
func Checksum(data []byte) uint16 {
	return FinishChecksum(sumBytes(0, data))
}

// sumBytes adds data's big-endian 16-bit words (an odd last byte padded
// with zero) into the partial ones' complement sum. The result is
// congruent to the word-by-word sum, not equal to it: 2^16 ≡ 1 in ones'
// complement arithmetic, so a big-endian 64-bit word stands for the sum of
// its four 16-bit words, and eight bytes go in per add with the carry
// wrapped around. FinishChecksum of either is the same 16 bits.
func sumBytes(sum uint32, data []byte) uint32 {
	var acc, carry uint64
	for len(data) >= 32 {
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(data), carry)
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(data[8:]), carry)
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(data[16:]), carry)
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(data[24:]), carry)
		data = data[32:]
	}
	for len(data) >= 8 {
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(data), carry)
		data = data[8:]
	}
	// The 0–7 byte tail fits in 56 bits: one more add takes all of it.
	var tail uint64
	if len(data) >= 4 {
		tail = uint64(binary.BigEndian.Uint32(data))
		data = data[4:]
	}
	if len(data) >= 2 {
		tail += uint64(binary.BigEndian.Uint16(data))
		data = data[2:]
	}
	if len(data) == 1 {
		tail += uint64(data[0]) << 8
	}
	acc, carry = bits.Add64(acc, tail, carry)
	acc = acc>>32 + acc&0xffffffff + carry
	acc = acc>>16 + acc&0xffff
	acc = acc>>16 + acc&0xffff
	acc = acc>>16 + acc&0xffff
	return sum + uint32(acc)
}

// FinishChecksum folds a partial ones' complement sum to 16 bits and
// complements it: the Internet checksum (RFC 1071) of the summed words.
// It is the package's one fold; every checksum here ends in it.
func FinishChecksum(sum uint32) uint16 {
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}

// pseudoHeaderSum computes the partial sum of the IPv4/IPv6 pseudo header
// used by TCP, UDP and (for IPv6) ICMP checksums.
func pseudoHeaderSum(srcIP, dstIP []byte, proto IPProtocol, length int) uint32 {
	sum := sumBytes(0, srcIP)
	sum = sumBytes(sum, dstIP)
	sum += uint32(proto)
	sum += uint32(length)
	return sum
}

// TransportChecksum computes the L4 checksum of segment carried between
// srcIP and dstIP with protocol proto. srcIP/dstIP must both be 4-byte or
// both 16-byte slices.
func TransportChecksum(segment, srcIP, dstIP []byte, proto IPProtocol) uint16 {
	sum := pseudoHeaderSum(srcIP, dstIP, proto, len(segment))
	sum = sumBytes(sum, segment)
	return FinishChecksum(sum)
}
