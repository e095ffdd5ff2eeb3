package proto

import "encoding/binary"

// IP protocol numbers.
const (
	IPProtoICMP uint8 = 1
	IPProtoTCP  uint8 = 6
	IPProtoUDP  uint8 = 17
)

// IPv4HdrLen is the length of an IPv4 header without options.
const IPv4HdrLen = 20

// IPv4Hdr is a zero-copy view of an IPv4 header (no options in the
// fast-path accessors; HdrLen handles options when parsing).
type IPv4Hdr []byte

// HdrLen returns the header length in bytes.
func (h IPv4Hdr) HdrLen() int { return int(h[0]&0x0f) * 4 }

// SetVersionIHL writes version 4 and the given header length in bytes.
func (h IPv4Hdr) SetVersionIHL(hdrLen int) { h[0] = 0x40 | uint8(hdrLen/4) }

// SetTOS sets the TOS byte.
func (h IPv4Hdr) SetTOS(v uint8) { h[1] = v }

// TotalLength returns the datagram length including the header.
func (h IPv4Hdr) TotalLength() uint16 { return binary.BigEndian.Uint16(h[2:4]) }

// SetTotalLength sets the total length field.
func (h IPv4Hdr) SetTotalLength(v uint16) { binary.BigEndian.PutUint16(h[2:4], v) }

// SetID sets the identification field.
func (h IPv4Hdr) SetID(v uint16) { binary.BigEndian.PutUint16(h[4:6], v) }

// SetFlags sets the 3 flag bits, preserving the fragment offset.
func (h IPv4Hdr) SetFlags(f uint8) { h[6] = h[6]&0x1f | f<<5 }

// SetTTL sets the time-to-live field.
func (h IPv4Hdr) SetTTL(v uint8) { h[8] = v }

// Protocol returns the payload protocol number.
func (h IPv4Hdr) Protocol() uint8 { return h[9] }

// SetProtocol sets the payload protocol number.
func (h IPv4Hdr) SetProtocol(v uint8) { h[9] = v }

// HeaderChecksum returns the header checksum field.
func (h IPv4Hdr) HeaderChecksum() uint16 { return binary.BigEndian.Uint16(h[10:12]) }

// SetHeaderChecksum sets the header checksum field.
func (h IPv4Hdr) SetHeaderChecksum(v uint16) { binary.BigEndian.PutUint16(h[10:12], v) }

// Src returns the source address.
func (h IPv4Hdr) Src() IPv4 { return IPv4FromBytes(h[12:16]) }

// SetSrc sets the source address.
func (h IPv4Hdr) SetSrc(ip IPv4) { binary.BigEndian.PutUint32(h[12:16], uint32(ip)) }

// Dst returns the destination address.
func (h IPv4Hdr) Dst() IPv4 { return IPv4FromBytes(h[16:20]) }

// SetDst sets the destination address.
func (h IPv4Hdr) SetDst(ip IPv4) { binary.BigEndian.PutUint32(h[16:20], uint32(ip)) }

// CalcChecksum computes and writes the header checksum.
func (h IPv4Hdr) CalcChecksum() {
	h.SetHeaderChecksum(0)
	h.SetHeaderChecksum(Checksum(h[:h.HdrLen()]))
}

// VerifyChecksum reports whether the stored header checksum is valid.
func (h IPv4Hdr) VerifyChecksum() bool {
	return Checksum(h[:h.HdrLen()]) == 0
}

// IPv4Fill is the Fill configuration for an IPv4 header.
type IPv4Fill struct {
	Src      IPv4
	Dst      IPv4
	Protocol uint8
	TTL      uint8 // default 64
	TOS      uint8
	ID       uint16
	Length   uint16 // total length including header; required
	DontFrag bool
}

// Fill writes the whole header. The checksum field is zeroed; either
// CalcChecksum or NIC offloading fills it.
func (h IPv4Hdr) Fill(cfg IPv4Fill) {
	h.SetVersionIHL(IPv4HdrLen)
	h.SetTOS(cfg.TOS)
	h.SetTotalLength(cfg.Length)
	h.SetID(cfg.ID)
	binary.BigEndian.PutUint16(h[6:8], 0)
	if cfg.DontFrag {
		h.SetFlags(2)
	}
	if cfg.TTL == 0 {
		cfg.TTL = 64
	}
	h.SetTTL(cfg.TTL)
	h.SetProtocol(cfg.Protocol)
	h.SetHeaderChecksum(0)
	h.SetSrc(cfg.Src)
	h.SetDst(cfg.Dst)
}
