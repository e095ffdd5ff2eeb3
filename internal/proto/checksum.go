package proto

import (
	"encoding/binary"
	"math/bits"
)

// Checksum computes the Internet checksum (RFC 1071) over data: the
// one's-complement of the one's-complement sum of 16-bit words, with an
// odd trailing byte padded with zero.
func Checksum(data []byte) uint16 {
	return finishChecksum(sum16(data, 0))
}

// sum16 adds data's 16-bit big-endian words (an odd trailing byte
// padded with zero) to acc in one's-complement arithmetic, RFC 1071
// §2's wide-word way: it sums 64-bit words with end-around carry and
// folds the result to 32 bits. Since 2^16 ≡ 1 (mod 0xFFFF), the result
// is congruent to the plain word sum mod 0xFFFF, and it is zero only
// when acc and every byte are — all finishChecksum and fold1 rely on.
func sum16(data []byte, acc uint32) uint32 {
	s, c := uint64(acc), uint64(0)
	for ; len(data) >= 8; data = data[8:] {
		s, c = bits.Add64(s, binary.BigEndian.Uint64(data), c)
	}
	var t uint64
	if len(data) >= 4 {
		t = uint64(binary.BigEndian.Uint32(data))
		data = data[4:]
	}
	if len(data) >= 2 {
		t += uint64(binary.BigEndian.Uint16(data))
		data = data[2:]
	}
	if len(data) == 1 {
		t += uint64(data[0]) << 8
	}
	s, c = bits.Add64(s, t, c)
	s += c // after a carry s <= t, so the end-around add cannot wrap
	s = s>>32 + s&0xffffffff
	s = s>>32 + s&0xffffffff
	return uint32(s)
}

func finishChecksum(acc uint32) uint16 {
	for acc>>16 != 0 {
		acc = (acc & 0xffff) + acc>>16
	}
	return ^uint16(acc)
}

// UpdateChecksum16 folds one 16-bit field change (oldField → newField)
// into an existing Internet checksum without re-walking the covered
// data: RFC 1624 §3, HC' = ~(~HC + ~m + m'). For any header whose
// covered bytes are not all zero (every real IPv4 header, because of
// the version/IHL byte) the result is bit-identical to a full
// recompute, including the 0x0000/0xFFFF negative-zero corner — the
// template property tests pin this. Multi-word fields (addresses) are
// updated by chaining one call per 16-bit word.
func UpdateChecksum16(old, oldField, newField uint16) uint16 {
	return finishChecksum(uint32(^old) + uint32(^oldField) + uint32(newField))
}

// PseudoHeaderChecksumIPv4 computes the unfolded pseudo-header sum for
// UDP/TCP over IPv4. The paper notes (§5.6.1) that the X540 does not
// compute this part in hardware, so MoonGen calculates it in software
// even when offloading — our NIC model does the same, which is why the
// cost shows up in Table 1.
func PseudoHeaderChecksumIPv4(src, dst IPv4, protocol uint8, length uint16) uint32 {
	var acc uint32
	acc += uint32(src >> 16)
	acc += uint32(src & 0xffff)
	acc += uint32(dst >> 16)
	acc += uint32(dst & 0xffff)
	acc += uint32(protocol)
	acc += uint32(length)
	return acc
}

// TransportChecksumIPv4 computes the complete UDP/TCP checksum over an
// IPv4 pseudo header plus the transport header and payload in seg. The
// checksum field inside seg must be zeroed by the caller first.
func TransportChecksumIPv4(src, dst IPv4, protocol uint8, seg []byte) uint16 {
	acc := PseudoHeaderChecksumIPv4(src, dst, protocol, uint16(len(seg)))
	cs := finishChecksum(sum16(seg, acc))
	if protocol == IPProtoUDP && cs == 0 {
		// RFC 768: an all-zero UDP checksum means "no checksum";
		// a computed zero is transmitted as 0xFFFF.
		cs = 0xffff
	}
	return cs
}
