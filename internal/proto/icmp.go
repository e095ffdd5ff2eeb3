package proto

import "encoding/binary"

// ICMP message types (v4).
const (
	ICMPTypeEchoReply uint8 = 0
	ICMPTypeEcho      uint8 = 8
)

// ICMPHdrLen is the fixed ICMP header length (type, code, checksum,
// rest-of-header).
const ICMPHdrLen = 8

// ICMPHdr is a zero-copy view of an ICMPv4 header.
type ICMPHdr []byte

// Type returns the message type.
func (h ICMPHdr) Type() uint8 { return h[0] }

// SetType sets the message type.
func (h ICMPHdr) SetType(v uint8) { h[0] = v }

// SetCode sets the message code.
func (h ICMPHdr) SetCode(v uint8) { h[1] = v }

// SetChecksum sets the checksum field.
func (h ICMPHdr) SetChecksum(v uint16) { binary.BigEndian.PutUint16(h[2:4], v) }

// SetID sets the echo identifier.
func (h ICMPHdr) SetID(v uint16) { binary.BigEndian.PutUint16(h[4:6], v) }

// SetSeq sets the echo sequence number.
func (h ICMPHdr) SetSeq(v uint16) { binary.BigEndian.PutUint16(h[6:8], v) }

// Payload returns the bytes after the fixed header.
func (h ICMPHdr) Payload() []byte { return h[ICMPHdrLen:] }

// CalcChecksumV4 computes and stores the ICMPv4 checksum over msg
// (header + payload). For ICMPv4 there is no pseudo header.
func (h ICMPHdr) CalcChecksumV4(msgLen int) {
	h.SetChecksum(0)
	h.SetChecksum(Checksum(h[:msgLen]))
}

// VerifyChecksumV4 reports whether the ICMPv4 checksum over msgLen bytes
// is valid.
func (h ICMPHdr) VerifyChecksumV4(msgLen int) bool {
	return Checksum(h[:msgLen]) == 0
}

// ICMPFill is the Fill configuration for an ICMP header.
type ICMPFill struct {
	Type uint8
	ID   uint16
	Seq  uint16
}

// Fill writes the fixed header with a zero checksum.
func (h ICMPHdr) Fill(cfg ICMPFill) {
	h.SetType(cfg.Type)
	h.SetCode(0)
	h.SetChecksum(0)
	h.SetID(cfg.ID)
	h.SetSeq(cfg.Seq)
}
