package proto

import "encoding/binary"

// EtherType values used by the generator.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeARP  uint16 = 0x0806
	// EtherTypePTP is the layer-2 EtherType for IEEE 1588 PTP event
	// messages — the type the Intel NIC timestamping filters match
	// (paper §6).
	EtherTypePTP uint16 = 0x88F7
)

// Ethernet frame size constants. Sizes exclude the 4-byte FCS unless
// noted: like DPDK, the API exposes frames without FCS and the MAC model
// appends it.
const (
	EthHdrLen = 14
	// MinFrameSizeFCS is the classic 64-byte minimum including FCS.
	MinFrameSizeFCS = 64
	// MaxFrameSize is the standard MTU-sized frame without FCS.
	MaxFrameSize = 1514
	// WireOverhead is the per-frame wire overhead outside the frame
	// proper: 7 B preamble + 1 B SFD + 12 B inter-frame gap.
	WireOverhead = 20
	// FCSLen is the frame check sequence length.
	FCSLen = 4
)

// WireLen returns the total wire occupancy in bytes of a frame of the
// given size (without FCS): frame + FCS + preamble/SFD/IFG. A 60-byte
// minimum frame occupies 84 bytes of wire time, which at 10 GbE gives
// the famous 14.88 Mpps line rate.
func WireLen(frameLen int) int { return frameLen + FCSLen + WireOverhead }

// EthHdr is a zero-copy view of a 14-byte Ethernet II header.
type EthHdr []byte

// SetDst sets the destination MAC.
func (h EthHdr) SetDst(m MAC) { copy(h[0:6], m[:]) }

// Src returns the source MAC.
func (h EthHdr) Src() MAC {
	var m MAC
	copy(m[:], h[6:12])
	return m
}

// SetSrc sets the source MAC.
func (h EthHdr) SetSrc(m MAC) { copy(h[6:12], m[:]) }

// EtherType returns the EtherType field.
func (h EthHdr) EtherType() uint16 { return binary.BigEndian.Uint16(h[12:14]) }

// SetEtherType sets the EtherType field.
func (h EthHdr) SetEtherType(t uint16) { binary.BigEndian.PutUint16(h[12:14], t) }

// EthFill is the Fill configuration for an Ethernet header.
type EthFill struct {
	Src       MAC
	Dst       MAC
	EtherType uint16
}

// Fill writes the whole header from cfg. A zero EtherType defaults to
// IPv4, matching MoonGen's getUdpPacket():fill defaulting.
func (h EthHdr) Fill(cfg EthFill) {
	h.SetDst(cfg.Dst)
	h.SetSrc(cfg.Src)
	if cfg.EtherType == 0 {
		cfg.EtherType = EtherTypeIPv4
	}
	h.SetEtherType(cfg.EtherType)
}
