package proto

import "encoding/binary"

// TCPHdrLen is the TCP header length without options.
const TCPHdrLen = 20

// TCP flag bits.
const (
	TCPFlagFIN uint8 = 1 << 0
	TCPFlagSYN uint8 = 1 << 1
	TCPFlagRST uint8 = 1 << 2
	TCPFlagPSH uint8 = 1 << 3
	TCPFlagACK uint8 = 1 << 4
	TCPFlagURG uint8 = 1 << 5
)

// TCPHdr is a zero-copy view of a TCP header.
type TCPHdr []byte

// SrcPort returns the source port.
func (h TCPHdr) SrcPort() uint16 { return binary.BigEndian.Uint16(h[0:2]) }

// SetSrcPort sets the source port.
func (h TCPHdr) SetSrcPort(v uint16) { binary.BigEndian.PutUint16(h[0:2], v) }

// DstPort returns the destination port.
func (h TCPHdr) DstPort() uint16 { return binary.BigEndian.Uint16(h[2:4]) }

// SetDstPort sets the destination port.
func (h TCPHdr) SetDstPort(v uint16) { binary.BigEndian.PutUint16(h[2:4], v) }

// SetSeqNum sets the sequence number.
func (h TCPHdr) SetSeqNum(v uint32) { binary.BigEndian.PutUint32(h[4:8], v) }

// SetAckNum sets the acknowledgment number.
func (h TCPHdr) SetAckNum(v uint32) { binary.BigEndian.PutUint32(h[8:12], v) }

// DataOffset returns the header length in bytes.
func (h TCPHdr) DataOffset() int { return int(h[12]>>4) * 4 }

// SetDataOffset sets the header length in bytes.
func (h TCPHdr) SetDataOffset(bytes int) { h[12] = uint8(bytes/4) << 4 }

// SetFlags sets the flag byte.
func (h TCPHdr) SetFlags(v uint8) { h[13] = v }

// SetWindow sets the receive window.
func (h TCPHdr) SetWindow(v uint16) { binary.BigEndian.PutUint16(h[14:16], v) }

// Checksum returns the checksum field.
func (h TCPHdr) Checksum() uint16 { return binary.BigEndian.Uint16(h[16:18]) }

// SetChecksum sets the checksum field.
func (h TCPHdr) SetChecksum(v uint16) { binary.BigEndian.PutUint16(h[16:18], v) }

// SetUrgentPointer sets the urgent pointer.
func (h TCPHdr) SetUrgentPointer(v uint16) { binary.BigEndian.PutUint16(h[18:20], v) }

// tcpWindow is the receive window Fill advertises: the largest one
// without window scaling.
const tcpWindow = 65535

// TCPFill is the Fill configuration for a TCP header.
type TCPFill struct {
	SrcPort uint16
	DstPort uint16
	SeqNum  uint32
	AckNum  uint32
	Flags   uint8
}

// Fill writes a 20-byte header with a zero checksum.
func (h TCPHdr) Fill(cfg TCPFill) {
	h.SetSrcPort(cfg.SrcPort)
	h.SetDstPort(cfg.DstPort)
	h.SetSeqNum(cfg.SeqNum)
	h.SetAckNum(cfg.AckNum)
	h.SetDataOffset(TCPHdrLen)
	h[12] &= 0xf0 // reserved bits zero
	h.SetFlags(cfg.Flags)
	h.SetWindow(tcpWindow)
	h.SetChecksum(0)
	h.SetUrgentPointer(0)
}
