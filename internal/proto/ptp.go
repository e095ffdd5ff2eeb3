package proto

import "encoding/binary"

// PTP (IEEE 1588) constants. The paper (§6) repurposes the NICs' PTP
// timestamping engines: the hardware filter matches the first payload
// byte (message type) and requires the second byte to hold the PTP
// version; every other field may carry arbitrary data, which is what
// lets MoonGen timestamp almost any packet.
const (
	// PTPHdrLen is the common PTP message header length.
	PTPHdrLen = 34

	// PTPUDPPort is the PTP event message UDP port (319); the port is
	// configurable on the 10 GbE chips.
	PTPUDPPort uint16 = 319

	// PTPVersion2 is the version byte the hardware filters check.
	PTPVersion2 uint8 = 2

	// PTPMinUDPSize is the minimum UDP PTP packet size the
	// investigated NICs will timestamp (§6.4): smaller UDP PTP
	// packets are refused; layer-2 PTP packets have no such limit.
	PTPMinUDPSize = 80
)

// PTP message types (event messages get timestamped).
const (
	PTPMsgSync      uint8 = 0x0
	PTPMsgDelayReq  uint8 = 0x1
	PTPMsgFollowUp  uint8 = 0x8
	PTPMsgDelayResp uint8 = 0x9
	// PTPMsgNoTimestamp is a message-type nibble outside the event
	// range; MoonGen uses such values for the filler packets that the
	// NIC must NOT timestamp (§6.4), so the device under test cannot
	// tell timestamped and plain packets apart.
	PTPMsgNoTimestamp uint8 = 0xF
)

// PTPHdr is a zero-copy view of a PTP common message header.
type PTPHdr []byte

// MessageType returns the low nibble of the first byte.
func (h PTPHdr) MessageType() uint8 { return h[0] & 0x0f }

// SetMessageType sets the message-type nibble.
func (h PTPHdr) SetMessageType(v uint8) { h[0] = h[0]&0xf0 | v&0x0f }

// Version returns the PTP version byte (low nibble of byte 1).
func (h PTPHdr) Version() uint8 { return h[1] & 0x0f }

// SetVersion sets the PTP version byte.
func (h PTPHdr) SetVersion(v uint8) { h[1] = h[1]&0xf0 | v&0x0f }

// SetMessageLength sets the messageLength field.
func (h PTPHdr) SetMessageLength(v uint16) { binary.BigEndian.PutUint16(h[2:4], v) }

// SequenceID returns the sequenceId field.
func (h PTPHdr) SequenceID() uint16 { return binary.BigEndian.Uint16(h[30:32]) }

// SetSequenceID sets the sequenceId field. MoonGen uses it to match
// transmitted and received timestamped packets.
func (h PTPHdr) SetSequenceID(v uint16) { binary.BigEndian.PutUint16(h[30:32], v) }

// PTPFill is the Fill configuration for a PTP header.
type PTPFill struct {
	MessageType uint8 // default PTPMsgSync (timestamped)
	Version     uint8 // default PTPVersion2
	SequenceID  uint16
	Length      uint16
}

// Fill writes the common header fields the hardware filter cares about
// and zeroes the rest.
func (h PTPHdr) Fill(cfg PTPFill) {
	for i := 0; i < PTPHdrLen && i < len(h); i++ {
		h[i] = 0
	}
	h.SetMessageType(cfg.MessageType)
	if cfg.Version == 0 {
		cfg.Version = PTPVersion2
	}
	h.SetVersion(cfg.Version)
	if cfg.Length == 0 {
		cfg.Length = PTPHdrLen
	}
	h.SetMessageLength(cfg.Length)
	h.SetSequenceID(cfg.SequenceID)
}

// IsTimestampedType reports whether msgType is a PTP event message the
// NIC hardware timestamps (Sync and Delay_Req in two-step mode).
func IsTimestampedType(msgType uint8) bool {
	return msgType == PTPMsgSync || msgType == PTPMsgDelayReq
}
