package proto

import "encoding/binary"

// Template is a per-flow packet prototype — the paper's §5.6 authoring
// rule ("fill the buffer once in the pool, then only touch the fields
// that change") made a first-class object. The full Ethernet/IPv4/L4
// header image is derived once at construction through the same Fill
// path the packet views expose, so steady-state transmit loops restore
// a flow's constant headers into each buffer with a single copy
// (Apply) instead of re-deriving every field per packet.
//
// Beyond the image, the template caches the checksum state that a full
// per-packet recompute would re-derive from scratch:
//
//   - the unfolded IPv4 pseudo-header + transport-header sum (checksum
//     field zero), so TransportChecksum only folds the payload words;
//   - optionally (after CalcIPChecksum) a live IPv4 header checksum in
//     the image, which the field setters then patch incrementally via
//     UpdateChecksum16 (RFC 1624 §3) instead of re-walking the header.
//
// Like the Fill methods it is built from, a fresh template leaves both
// checksum fields zero — Apply is bit-identical to calling Fill on the
// buffer, which is what keeps the golden runs byte-exact.
type Template struct {
	hdr []byte
	l4  uint8 // IPProtoUDP or IPProtoTCP

	// ipCsumLive is set once CalcIPChecksum has stored a real checksum
	// in the image; from then on the setters maintain it incrementally.
	ipCsumLive bool

	// l4Invariant is the unfolded one's-complement sum of the IPv4
	// pseudo header plus the transport header with a zero checksum
	// field — the payload-independent part of the UDP/TCP checksum.
	// Kept partially folded so chained setters cannot overflow it.
	l4Invariant uint32
}

// Relative 16-bit word offsets inside the template image.
const (
	tmplIPOff  = EthHdrLen
	tmplL4Off  = EthHdrLen + IPv4HdrLen
	ipWordVer  = tmplIPOff + 0  // version/IHL | TOS
	ipWordID   = tmplIPOff + 4  // identification
	ipWordCsum = tmplIPOff + 10 // header checksum
	ipWordSrc  = tmplIPOff + 12 // source address (2 words)
	ipWordDst  = tmplIPOff + 16 // destination address (2 words)
)

// NewUDPTemplate builds the flow's Ethernet/IPv4/UDP header image and
// checksum caches from cfg. cfg.PktLength is the full frame length the
// flow will transmit; it fixes the length fields and the pseudo-header
// sum, so every packet of the flow must use it.
func NewUDPTemplate(cfg UDPPacketFill) *Template {
	t := &Template{hdr: make([]byte, EthHdrLen+IPv4HdrLen+UDPHdrLen), l4: IPProtoUDP}
	UDPPacket{B: t.hdr}.Fill(cfg)
	t.initInvariant(uint16(cfg.PktLength - tmplL4Off))
	return t
}

// NewTCPTemplate builds the flow's Ethernet/IPv4/TCP header image and
// checksum caches from cfg.
func NewTCPTemplate(cfg TCPPacketFill) *Template {
	t := &Template{hdr: make([]byte, EthHdrLen+IPv4HdrLen+TCPHdrLen), l4: IPProtoTCP}
	TCPPacket{B: t.hdr}.Fill(cfg)
	t.initInvariant(uint16(cfg.PktLength - tmplL4Off))
	return t
}

// initInvariant seeds the cached pseudo-header + transport-header sum
// from the freshly filled image (checksum fields are still zero).
func (t *Template) initInvariant(segLen uint16) {
	ip := IPv4Hdr(t.hdr[tmplIPOff:])
	acc := PseudoHeaderChecksumIPv4(ip.Src(), ip.Dst(), t.l4, segLen)
	t.l4Invariant = fold1(sum16(t.hdr[tmplL4Off:], acc))
}

// fold1 performs one carry-fold step: enough to keep a partially
// folded accumulator small after each bounded update while preserving
// its value mod 0xFFFF (what finishChecksum depends on).
func fold1(acc uint32) uint32 { return acc&0xffff + acc>>16 }

// Apply restores the flow's constant headers into a frame buffer: the
// whole Listing-2 prefill body in one copy. The payload bytes beyond
// the header image are left untouched, exactly like the Fill methods.
func (t *Template) Apply(b []byte) { copy(b, t.hdr) }

// CalcIPChecksum computes the IPv4 header checksum once and stores it
// in the image; afterwards the field setters keep it valid with RFC
// 1624 incremental patches instead of header re-walks.
func (t *Template) CalcIPChecksum() {
	IPv4Hdr(t.hdr[tmplIPOff:]).CalcChecksum()
	t.ipCsumLive = true
}

// ipWord reads the big-endian 16-bit word at byte offset off.
func (t *Template) ipWord(off int) uint16 { return binary.BigEndian.Uint16(t.hdr[off:]) }

// setWord replaces the 16-bit word at off, patching the live IPv4
// header checksum incrementally when the word is IP-covered (inIP) and
// the transport invariant when it is pseudo-header- or L4-covered
// (inL4).
func (t *Template) setWord(off int, v uint16, inIP, inL4 bool) {
	old := t.ipWord(off)
	if old == v {
		return
	}
	if inIP && t.ipCsumLive {
		cs := t.ipWord(ipWordCsum)
		binary.BigEndian.PutUint16(t.hdr[ipWordCsum:], UpdateChecksum16(cs, old, v))
	}
	if inL4 {
		t.l4Invariant = fold1(t.l4Invariant + uint32(^old) + uint32(v))
	}
	binary.BigEndian.PutUint16(t.hdr[off:], v)
}

// SetTOS updates the IPv4 TOS byte (and the live header checksum).
func (t *Template) SetTOS(v uint8) {
	t.setWord(ipWordVer, uint16(t.hdr[ipWordVer])<<8|uint16(v), true, false)
}

// SetIPID updates the IPv4 identification field — the classic
// per-packet counter field of a template flow.
func (t *Template) SetIPID(id uint16) { t.setWord(ipWordID, id, true, false) }

// SetIPSrc updates the IPv4 source address (header checksum and
// pseudo-header sum both patched incrementally).
func (t *Template) SetIPSrc(ip IPv4) {
	t.setWord(ipWordSrc, uint16(ip>>16), true, true)
	t.setWord(ipWordSrc+2, uint16(ip), true, true)
}

// SetIPDst updates the IPv4 destination address.
func (t *Template) SetIPDst(ip IPv4) {
	t.setWord(ipWordDst, uint16(ip>>16), true, true)
	t.setWord(ipWordDst+2, uint16(ip), true, true)
}

// SetDstPort updates the L4 destination port (UDP and TCP share the
// offset).
func (t *Template) SetDstPort(p uint16) { t.setWord(tmplL4Off+2, p, false, true) }

// TransportChecksum computes the flow's UDP/TCP checksum for a packet
// whose payload (the bytes after the transport header) is given,
// folding only the payload into the cached header sum. The result is
// bit-identical to TransportChecksumIPv4 over the full segment with a
// zeroed checksum field, including the RFC 768 zero-avoidance rule for
// UDP.
func (t *Template) TransportChecksum(payload []byte) uint16 {
	cs := finishChecksum(sum16(payload, t.l4Invariant))
	if t.l4 == IPProtoUDP && cs == 0 {
		cs = 0xffff
	}
	return cs
}
