package proto

import "fmt"

// This file provides stacked packet views — the Go analogue of
// MoonGen's buf:getUdpPacket(), buf:getTcpPacket(), etc. A view wraps
// the raw frame bytes and exposes each header layer plus a Fill method
// that writes the complete protocol stack with sensible defaults, so a
// pool-prefill callback can write every constant field once.

// UDPPacket is an Ethernet/IPv4/UDP view of a frame.
type UDPPacket struct{ B []byte }

// Eth returns the Ethernet header view.
func (p UDPPacket) Eth() EthHdr { return EthHdr(p.B) }

// IP returns the IPv4 header view.
func (p UDPPacket) IP() IPv4Hdr { return IPv4Hdr(p.B[EthHdrLen:]) }

// UDP returns the UDP header view.
func (p UDPPacket) UDP() UDPHdr { return UDPHdr(p.B[EthHdrLen+IPv4HdrLen:]) }

// Payload returns the UDP payload bytes.
func (p UDPPacket) Payload() []byte { return p.B[EthHdrLen+IPv4HdrLen+UDPHdrLen:] }

// UDPPacketFill configures a full Ethernet/IPv4/UDP stack.
type UDPPacketFill struct {
	PktLength int // full frame length; required
	EthSrc    MAC
	EthDst    MAC
	IPSrc     IPv4
	IPDst     IPv4
	TTL       uint8
	TOS       uint8
	UDPSrc    uint16
	UDPDst    uint16
}

// Fill writes Ethernet, IPv4 and UDP headers for a frame of
// cfg.PktLength bytes. Checksums are left zero for offloading or
// CalcChecksums.
func (p UDPPacket) Fill(cfg UDPPacketFill) {
	if cfg.PktLength < EthHdrLen+IPv4HdrLen+UDPHdrLen {
		panic(fmt.Sprintf("proto: UDP packet length %d too short", cfg.PktLength))
	}
	p.Eth().Fill(EthFill{Src: cfg.EthSrc, Dst: cfg.EthDst, EtherType: EtherTypeIPv4})
	p.IP().Fill(IPv4Fill{
		Src:      cfg.IPSrc,
		Dst:      cfg.IPDst,
		Protocol: IPProtoUDP,
		TTL:      cfg.TTL,
		TOS:      cfg.TOS,
		Length:   uint16(cfg.PktLength - EthHdrLen),
	})
	p.UDP().Fill(UDPFill{
		SrcPort: cfg.UDPSrc,
		DstPort: cfg.UDPDst,
		Length:  uint16(cfg.PktLength - EthHdrLen - IPv4HdrLen),
	})
}

// CalcChecksums computes the IPv4 header checksum and the UDP checksum
// in software — what a script does when it cannot or does not offload.
func (p UDPPacket) CalcChecksums() {
	ip := p.IP()
	ip.CalcChecksum()
	udp := p.UDP()
	udp.SetChecksum(0)
	seg := p.B[EthHdrLen+IPv4HdrLen : EthHdrLen+int(ip.TotalLength())]
	udp.SetChecksum(TransportChecksumIPv4(ip.Src(), ip.Dst(), IPProtoUDP, seg))
}

// PatchSrc rewrites the IPv4 source address. When the UDP checksum is
// set, it patches that and the IPv4 header checksum for the new address
// in place (RFC 1624, RFC 768's computed zero sent as 0xFFFF), so both
// stay exactly what a full recompute would give, and reports true.
// A UDP checksum of 0 was never computed (RFC 768 never sends a computed
// zero): a buffer fresh from its prefill. Then only the address changes,
// and PatchSrc reports false: the caller must have both checksums
// computed in full (CalcChecksums or NIC offload). Recycled buffers
// keep their contents (§4.2), so a pool buffer pays that once.
func (p UDPPacket) PatchSrc(src IPv4) bool {
	ip, udp := p.IP(), p.UDP()
	old := ip.Src()
	ip.SetSrc(src)
	cs := udp.Checksum()
	if cs == 0 {
		return false
	}
	d := patchSrcIP(ip, old, src)
	if cs = finishChecksum(uint32(^cs) + d); cs == 0 {
		cs = 0xffff
	}
	udp.SetChecksum(cs)
	return true
}

// patchSrcIP patches the IPv4 header checksum for a source change from
// old to src (RFC 1624 §3 over both address words: HC' = ~(~HC + ~m +
// m')) and returns ~m + m', which patches a pseudo-header sum alike.
func patchSrcIP(ip IPv4Hdr, old, src IPv4) uint32 {
	d := uint32(^uint16(old>>16)) + uint32(^uint16(old)) + uint32(src>>16) + uint32(uint16(src))
	ip.SetHeaderChecksum(finishChecksum(uint32(^ip.HeaderChecksum()) + d))
	return d
}

// VerifyChecksums reports whether both the IPv4 header checksum and the
// UDP checksum are valid.
func (p UDPPacket) VerifyChecksums() bool {
	ip := p.IP()
	if !ip.VerifyChecksum() {
		return false
	}
	seg := p.B[EthHdrLen+IPv4HdrLen : EthHdrLen+int(ip.TotalLength())]
	if UDPHdr(seg).Checksum() == 0 {
		return true // checksum not used
	}
	acc := PseudoHeaderChecksumIPv4(ip.Src(), ip.Dst(), IPProtoUDP, uint16(len(seg)))
	return finishChecksum(sum16(seg, acc)) == 0
}

// TCPPacket is an Ethernet/IPv4/TCP view of a frame.
type TCPPacket struct{ B []byte }

// Eth returns the Ethernet header view.
func (p TCPPacket) Eth() EthHdr { return EthHdr(p.B) }

// IP returns the IPv4 header view.
func (p TCPPacket) IP() IPv4Hdr { return IPv4Hdr(p.B[EthHdrLen:]) }

// TCP returns the TCP header view.
func (p TCPPacket) TCP() TCPHdr { return TCPHdr(p.B[EthHdrLen+IPv4HdrLen:]) }

// TCPPacketFill configures a full Ethernet/IPv4/TCP stack.
type TCPPacketFill struct {
	PktLength int
	EthSrc    MAC
	EthDst    MAC
	IPSrc     IPv4
	IPDst     IPv4
	TCPSrc    uint16
	TCPDst    uint16
	SeqNum    uint32
	AckNum    uint32
	Flags     uint8 // default SYN
	Window    uint16
}

// Fill writes Ethernet, IPv4 and TCP headers.
func (p TCPPacket) Fill(cfg TCPPacketFill) {
	if cfg.PktLength < EthHdrLen+IPv4HdrLen+TCPHdrLen {
		panic(fmt.Sprintf("proto: TCP packet length %d too short", cfg.PktLength))
	}
	p.Eth().Fill(EthFill{Src: cfg.EthSrc, Dst: cfg.EthDst, EtherType: EtherTypeIPv4})
	p.IP().Fill(IPv4Fill{
		Src:      cfg.IPSrc,
		Dst:      cfg.IPDst,
		Protocol: IPProtoTCP,
		Length:   uint16(cfg.PktLength - EthHdrLen),
	})
	if cfg.Flags == 0 {
		cfg.Flags = TCPFlagSYN
	}
	p.TCP().Fill(TCPFill{
		SrcPort: cfg.TCPSrc, DstPort: cfg.TCPDst,
		SeqNum: cfg.SeqNum, AckNum: cfg.AckNum,
		Flags: cfg.Flags, Window: cfg.Window,
	})
}

// CalcChecksums computes IPv4 and TCP checksums in software.
func (p TCPPacket) CalcChecksums() {
	ip := p.IP()
	ip.CalcChecksum()
	tcp := p.TCP()
	tcp.SetChecksum(0)
	seg := p.B[EthHdrLen+IPv4HdrLen : EthHdrLen+int(ip.TotalLength())]
	tcp.SetChecksum(TransportChecksumIPv4(ip.Src(), ip.Dst(), IPProtoTCP, seg))
}

// PatchSrc is UDPPacket.PatchSrc for TCP, which has no "no checksum"
// value: a zero in either checksum marks a buffer fresh from its
// prefill (a sum that computes to zero only costs one more full
// computation), and then only the address changes.
func (p TCPPacket) PatchSrc(src IPv4) bool {
	ip, tcp := p.IP(), p.TCP()
	old := ip.Src()
	ip.SetSrc(src)
	if ip.HeaderChecksum() == 0 || tcp.Checksum() == 0 {
		return false
	}
	tcp.SetChecksum(finishChecksum(uint32(^tcp.Checksum()) + patchSrcIP(ip, old, src)))
	return true
}

// VerifyChecksums reports whether both checksums are valid.
func (p TCPPacket) VerifyChecksums() bool {
	ip := p.IP()
	if !ip.VerifyChecksum() {
		return false
	}
	seg := p.B[EthHdrLen+IPv4HdrLen : EthHdrLen+int(ip.TotalLength())]
	acc := PseudoHeaderChecksumIPv4(ip.Src(), ip.Dst(), IPProtoTCP, uint16(len(seg)))
	return finishChecksum(sum16(seg, acc)) == 0
}

// ICMPPacket is an Ethernet/IPv4/ICMP view of a frame.
type ICMPPacket struct{ B []byte }

// Eth returns the Ethernet header view.
func (p ICMPPacket) Eth() EthHdr { return EthHdr(p.B) }

// IP returns the IPv4 header view.
func (p ICMPPacket) IP() IPv4Hdr { return IPv4Hdr(p.B[EthHdrLen:]) }

// ICMP returns the ICMP header view.
func (p ICMPPacket) ICMP() ICMPHdr { return ICMPHdr(p.B[EthHdrLen+IPv4HdrLen:]) }

// ICMPPacketFill configures a full Ethernet/IPv4/ICMP echo stack.
type ICMPPacketFill struct {
	PktLength int
	EthSrc    MAC
	EthDst    MAC
	IPSrc     IPv4
	IPDst     IPv4
	Type      uint8 // default echo request
	ID        uint16
	Seq       uint16
}

// Fill writes the Ethernet, IPv4 and ICMP headers and computes the ICMP
// checksum (there is no hardware offload for ICMP).
func (p ICMPPacket) Fill(cfg ICMPPacketFill) {
	if cfg.PktLength < EthHdrLen+IPv4HdrLen+ICMPHdrLen {
		panic(fmt.Sprintf("proto: ICMP packet length %d too short", cfg.PktLength))
	}
	p.Eth().Fill(EthFill{Src: cfg.EthSrc, Dst: cfg.EthDst, EtherType: EtherTypeIPv4})
	p.IP().Fill(IPv4Fill{
		Src: cfg.IPSrc, Dst: cfg.IPDst,
		Protocol: IPProtoICMP,
		Length:   uint16(cfg.PktLength - EthHdrLen),
	})
	if cfg.Type == 0 {
		cfg.Type = ICMPTypeEcho
	}
	p.ICMP().Fill(ICMPFill{Type: cfg.Type, ID: cfg.ID, Seq: cfg.Seq})
	p.ICMP().CalcChecksumV4(cfg.PktLength - EthHdrLen - IPv4HdrLen)
}

// PTPPacket is a layer-2 PTP packet view (EtherType 0x88F7), the format
// MoonGen's timestamping tasks use because it has no minimum-size
// restriction (§6.4).
type PTPPacket struct{ B []byte }

// Eth returns the Ethernet header view.
func (p PTPPacket) Eth() EthHdr { return EthHdr(p.B) }

// PTP returns the PTP header view.
func (p PTPPacket) PTP() PTPHdr { return PTPHdr(p.B[EthHdrLen:]) }

// PTPPacketFill configures a layer-2 PTP packet.
type PTPPacketFill struct {
	PktLength   int
	EthSrc      MAC
	EthDst      MAC
	MessageType uint8
	SequenceID  uint16
}

// Fill writes the Ethernet and PTP headers.
func (p PTPPacket) Fill(cfg PTPPacketFill) {
	if cfg.PktLength < EthHdrLen+PTPHdrLen {
		panic(fmt.Sprintf("proto: PTP packet length %d too short", cfg.PktLength))
	}
	p.Eth().Fill(EthFill{Src: cfg.EthSrc, Dst: cfg.EthDst, EtherType: EtherTypePTP})
	p.PTP().Fill(PTPFill{
		MessageType: cfg.MessageType,
		SequenceID:  cfg.SequenceID,
		Length:      uint16(cfg.PktLength - EthHdrLen),
	})
}

// UDPPTPPacket is a UDP-encapsulated PTP packet view
// (Ethernet/IPv4/UDP/PTP), the other format the NIC filters recognize.
type UDPPTPPacket struct{ B []byte }

// UDPView returns the enclosing UDP packet view.
func (p UDPPTPPacket) UDPView() UDPPacket { return UDPPacket{B: p.B} }

// PTP returns the PTP header view inside the UDP payload.
func (p UDPPTPPacket) PTP() PTPHdr {
	return PTPHdr(p.B[EthHdrLen+IPv4HdrLen+UDPHdrLen:])
}

// UDPPTPPacketFill configures a UDP PTP packet.
type UDPPTPPacketFill struct {
	PktLength   int
	EthSrc      MAC
	EthDst      MAC
	IPSrc       IPv4
	IPDst       IPv4
	MessageType uint8
	SequenceID  uint16
	UDPDst      uint16 // default PTPUDPPort
}

// Fill writes the full stack.
func (p UDPPTPPacket) Fill(cfg UDPPTPPacketFill) {
	if cfg.UDPDst == 0 {
		cfg.UDPDst = PTPUDPPort
	}
	p.UDPView().Fill(UDPPacketFill{
		PktLength: cfg.PktLength,
		EthSrc:    cfg.EthSrc, EthDst: cfg.EthDst,
		IPSrc: cfg.IPSrc, IPDst: cfg.IPDst,
		UDPSrc: PTPUDPPort, UDPDst: cfg.UDPDst,
	})
	p.PTP().Fill(PTPFill{
		MessageType: cfg.MessageType,
		SequenceID:  cfg.SequenceID,
		Length:      uint16(cfg.PktLength - EthHdrLen - IPv4HdrLen - UDPHdrLen),
	})
}
