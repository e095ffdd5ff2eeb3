package proto

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// udpFrame builds an Ethernet/IPv4/UDP frame around payload with both
// checksums computed in full.
func udpFrame(payload []byte, src, dst IPv4, ports uint32, tos uint8) []byte {
	b := make([]byte, EthHdrLen+IPv4HdrLen+UDPHdrLen+len(payload))
	p := UDPPacket{B: b}
	p.Fill(UDPPacketFill{
		PktLength: len(b),
		EthSrc:    MAC{0x02, 0, 0, 0, 0, 1}, EthDst: MAC{0x02, 0, 0, 0, 0, 2},
		IPSrc: src, IPDst: dst, TOS: tos,
		UDPSrc: uint16(ports >> 16), UDPDst: uint16(ports),
	})
	copy(p.Payload(), payload)
	p.CalcChecksums()
	return b
}

// checkPatchSrc requires PatchSrc on a checksummed frame to produce the
// bytes of a full recompute (IPv4Hdr.CalcChecksum plus
// TransportChecksumIPv4 over the whole segment) for the new address,
// and on a frame fresh from its prefill (checksums zero) to change
// only the address and report false.
func checkPatchSrc(t testing.TB, frame []byte, src IPv4) {
	t.Helper()
	want := bytes.Clone(frame)
	UDPPacket{B: want}.IP().SetSrc(src)
	UDPPacket{B: want}.CalcChecksums()
	got := bytes.Clone(frame)
	if !(UDPPacket{B: got}).PatchSrc(src) {
		t.Fatalf("PatchSrc(%v) on a checksummed frame reported false", src)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("PatchSrc(%v) from %v: ip csum %#04x udp csum %#04x, full recompute %#04x %#04x",
			src, UDPPacket{B: frame}.IP().Src(),
			UDPPacket{B: got}.IP().HeaderChecksum(), UDPPacket{B: got}.UDP().Checksum(),
			UDPPacket{B: want}.IP().HeaderChecksum(), UDPPacket{B: want}.UDP().Checksum())
	}

	fresh := bytes.Clone(frame)
	UDPPacket{B: fresh}.IP().SetHeaderChecksum(0)
	UDPPacket{B: fresh}.UDP().SetChecksum(0)
	want = bytes.Clone(fresh)
	UDPPacket{B: want}.IP().SetSrc(src)
	if (UDPPacket{B: fresh}).PatchSrc(src) || !bytes.Equal(fresh, want) {
		t.Fatalf("PatchSrc(%v) on a fresh frame: want false and only the address changed", src)
	}
}

// computedZero balances the first payload word of a frame so its full
// UDP sum is 0xFFFF: the checksum computes to zero and is sent as
// 0xFFFF.
func computedZero(payload []byte, src, dst IPv4, ports uint32, tos uint8) []byte {
	payload[0], payload[1] = 0, 0
	b := udpFrame(payload, src, dst, ports, tos)
	seg := UDPPacket{B: b}.UDP()
	seg.SetChecksum(0)
	acc := PseudoHeaderChecksumIPv4(src, dst, IPProtoUDP, uint16(len(seg)))
	binary.BigEndian.PutUint16(seg.Payload(), finishChecksum(sum16(seg, acc)))
	UDPPacket{B: b}.CalcChecksums()
	return b
}

// TestPatchSrcMatchesFullRecomputeProperty draws random frames, payload
// lengths and old/new source addresses, plus frames crafted so the old
// or the new UDP checksum computes to zero (sent as 0xFFFF).
func TestPatchSrcMatchesFullRecomputeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1624))
	for trial := 0; trial < 2000; trial++ {
		payload := make([]byte, 2+rng.Intn(1472-1))
		rng.Read(payload)
		old, src, dst := IPv4(rng.Uint32()), IPv4(rng.Uint32()), IPv4(rng.Uint32())
		ports, tos := rng.Uint32(), uint8(rng.Intn(256))
		if trial%4 == 0 {
			src = old ^ IPv4(1<<rng.Intn(32)) // one bit apart
		}
		checkPatchSrc(t, udpFrame(payload, old, dst, ports, tos), src)

		zero := computedZero(payload, old, dst, ports, tos)
		if cs := (UDPPacket{B: zero}).UDP().Checksum(); cs != 0xffff {
			t.Fatalf("test setup: crafted frame's UDP checksum is %#04x, want 0xffff", cs)
		}
		checkPatchSrc(t, zero, src) // from 0xFFFF
		toZero := computedZero(payload, src, dst, ports, tos)
		UDPPacket{B: toZero}.IP().SetSrc(old)
		UDPPacket{B: toZero}.CalcChecksums()
		checkPatchSrc(t, toZero, src) // to 0xFFFF
	}
}

// tcpFrame builds an Ethernet/IPv4/TCP frame around payload with both
// checksums computed in full.
func tcpFrame(payload []byte, src, dst IPv4, ports, seq uint32) []byte {
	b := make([]byte, EthHdrLen+IPv4HdrLen+TCPHdrLen+len(payload))
	p := TCPPacket{B: b}
	p.Fill(TCPPacketFill{
		PktLength: len(b),
		IPSrc:     src, IPDst: dst,
		TCPSrc: uint16(ports >> 16), TCPDst: uint16(ports), SeqNum: seq,
	})
	copy(b[EthHdrLen+IPv4HdrLen+TCPHdrLen:], payload)
	p.CalcChecksums()
	return b
}

// checkTCPPatchSrc is checkPatchSrc for TCP. A frame whose IPv4 or TCP
// checksum is zero counts as fresh: PatchSrc must change only the
// address and report false.
func checkTCPPatchSrc(t testing.TB, frame []byte, src IPv4) {
	t.Helper()
	p := TCPPacket{B: frame}
	fresh := p.IP().HeaderChecksum() == 0 || p.TCP().Checksum() == 0
	want := bytes.Clone(frame)
	TCPPacket{B: want}.IP().SetSrc(src)
	if !fresh {
		TCPPacket{B: want}.CalcChecksums()
	}
	got := bytes.Clone(frame)
	if ok := (TCPPacket{B: got}).PatchSrc(src); ok == fresh || !bytes.Equal(got, want) {
		t.Fatalf("TCP PatchSrc(%v) from %v (fresh %v) reported %v: ip csum %#04x tcp csum %#04x, want %#04x %#04x",
			src, p.IP().Src(), fresh, ok,
			TCPPacket{B: got}.IP().HeaderChecksum(), TCPPacket{B: got}.TCP().Checksum(),
			TCPPacket{B: want}.IP().HeaderChecksum(), TCPPacket{B: want}.TCP().Checksum())
	}
	if !fresh {
		zero := bytes.Clone(frame)
		TCPPacket{B: zero}.TCP().SetChecksum(0)
		checkTCPPatchSrc(t, zero, src)
	}
}

// tcpZero balances the first payload word of a frame so its TCP
// checksum computes to zero.
func tcpZero(payload []byte, src, dst IPv4, ports, seq uint32) []byte {
	payload[0], payload[1] = 0, 0
	b := tcpFrame(payload, src, dst, ports, seq)
	p := TCPPacket{B: b}
	binary.BigEndian.PutUint16(b[EthHdrLen+IPv4HdrLen+TCPHdrLen:], p.TCP().Checksum())
	p.CalcChecksums()
	return b
}

// TestTCPPatchSrcMatchesFullRecomputeProperty is the TCP counterpart of
// the UDP property: random frames and addresses, plus frames whose old
// or new TCP checksum computes to zero.
func TestTCPPatchSrcMatchesFullRecomputeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(793))
	for trial := 0; trial < 2000; trial++ {
		payload := make([]byte, 2+rng.Intn(1460-1))
		rng.Read(payload)
		old, src, dst := IPv4(rng.Uint32()), IPv4(rng.Uint32()), IPv4(rng.Uint32())
		ports, seq := rng.Uint32(), rng.Uint32()
		if trial%4 == 0 {
			src = old ^ IPv4(1<<rng.Intn(32))
		}
		checkTCPPatchSrc(t, tcpFrame(payload, old, dst, ports, seq), src)

		zero := tcpZero(payload, old, dst, ports, seq)
		if cs := (TCPPacket{B: zero}).TCP().Checksum(); cs != 0 {
			t.Fatalf("test setup: crafted frame's TCP checksum is %#04x, want 0", cs)
		}
		checkTCPPatchSrc(t, zero, src) // from a computed zero: fresh
		toZero := tcpZero(payload, src, dst, ports, seq)
		TCPPacket{B: toZero}.IP().SetSrc(old)
		TCPPacket{B: toZero}.CalcChecksums()
		checkTCPPatchSrc(t, toZero, src) // to a computed zero
	}
}

func FuzzPatchSrc(f *testing.F) {
	f.Add([]byte{}, uint32(0x0a000001), uint32(0x0a0000ff), uint32(0xc0a80101), uint32(1234<<16|42), uint8(0))
	f.Add([]byte{0xff, 0xff, 0xff}, uint32(0xffffffff), uint32(0), uint32(0), uint32(0), uint8(0xb8))
	f.Add(make([]byte, 18), uint32(0), uint32(0xffffffff), uint32(0xffffffff), uint32(0xffffffff), uint8(0xff))
	f.Fuzz(func(t *testing.T, payload []byte, old, src, dst, ports uint32, tos uint8) {
		if len(payload) > 1472 {
			payload = payload[:1472]
		}
		checkPatchSrc(t, udpFrame(payload, IPv4(old), IPv4(dst), ports, tos), IPv4(src))
		if len(payload) >= 2 {
			checkPatchSrc(t, computedZero(bytes.Clone(payload), IPv4(old), IPv4(dst), ports, tos), IPv4(src))
		}
		if len(payload) > 1460 {
			payload = payload[:1460]
		}
		seq := ports ^ uint32(tos)<<24
		checkTCPPatchSrc(t, tcpFrame(payload, IPv4(old), IPv4(dst), ports, seq), IPv4(src))
		if len(payload) >= 2 {
			checkTCPPatchSrc(t, tcpZero(bytes.Clone(payload), IPv4(src), IPv4(dst), ports, seq), IPv4(old))
		}
	})
}
