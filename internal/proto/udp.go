package proto

import "encoding/binary"

// UDPHdrLen is the UDP header length.
const UDPHdrLen = 8

// UDPHdr is a zero-copy view of a UDP header.
type UDPHdr []byte

// SrcPort returns the source port.
func (h UDPHdr) SrcPort() uint16 { return binary.BigEndian.Uint16(h[0:2]) }

// SetSrcPort sets the source port.
func (h UDPHdr) SetSrcPort(v uint16) { binary.BigEndian.PutUint16(h[0:2], v) }

// DstPort returns the destination port.
func (h UDPHdr) DstPort() uint16 { return binary.BigEndian.Uint16(h[2:4]) }

// SetDstPort sets the destination port.
func (h UDPHdr) SetDstPort(v uint16) { binary.BigEndian.PutUint16(h[2:4], v) }

// SetLength sets the UDP length.
func (h UDPHdr) SetLength(v uint16) { binary.BigEndian.PutUint16(h[4:6], v) }

// Checksum returns the checksum field.
func (h UDPHdr) Checksum() uint16 { return binary.BigEndian.Uint16(h[6:8]) }

// SetChecksum sets the checksum field.
func (h UDPHdr) SetChecksum(v uint16) { binary.BigEndian.PutUint16(h[6:8], v) }

// Payload returns the bytes after the header.
func (h UDPHdr) Payload() []byte { return h[UDPHdrLen:] }

// UDPFill is the Fill configuration for a UDP header.
type UDPFill struct {
	SrcPort uint16
	DstPort uint16
	Length  uint16 // header + payload
}

// Fill writes the whole header with a zero checksum.
func (h UDPHdr) Fill(cfg UDPFill) {
	h.SetSrcPort(cfg.SrcPort)
	h.SetDstPort(cfg.DstPort)
	h.SetLength(cfg.Length)
	h.SetChecksum(0)
}
