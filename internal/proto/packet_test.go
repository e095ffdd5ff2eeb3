package proto

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func testUDPFill() (UDPPacket, UDPPacketFill) {
	b := make([]byte, 124)
	cfg := UDPPacketFill{
		PktLength: 124,
		EthSrc:    MAC{0x02, 0, 0, 0, 0, 0x01},
		EthDst:    MAC{0x10, 0x11, 0x12, 0x13, 0x14, 0x15},
		IPSrc:     MustIPv4("10.0.0.1"),
		IPDst:     MustIPv4("192.168.1.1"),
		UDPSrc:    1234,
		UDPDst:    42,
	}
	p := UDPPacket{B: b}
	p.Fill(cfg)
	return p, cfg
}

func TestUDPPacketFill(t *testing.T) {
	p, cfg := testUDPFill()
	if p.Eth().EtherType() != EtherTypeIPv4 {
		t.Fatalf("ethertype = %#x", p.Eth().EtherType())
	}
	if p.Eth().Src() != cfg.EthSrc || MAC(p.B[0:6]) != cfg.EthDst {
		t.Fatal("MACs wrong")
	}
	ip := p.IP()
	if ip[0]>>4 != 4 || ip.HdrLen() != 20 {
		t.Fatalf("version=%d ihl=%d", ip[0]>>4, ip.HdrLen())
	}
	if ip.TotalLength() != 110 {
		t.Fatalf("total length = %d", ip.TotalLength())
	}
	if ip[8] != 64 || ip.Protocol() != IPProtoUDP {
		t.Fatalf("ttl=%d proto=%d", ip[8], ip.Protocol())
	}
	if ip.Src() != cfg.IPSrc || ip.Dst() != cfg.IPDst {
		t.Fatal("IPs wrong")
	}
	udp := p.UDP()
	if udp.SrcPort() != 1234 || udp.DstPort() != 42 {
		t.Fatalf("ports %d->%d", udp.SrcPort(), udp.DstPort())
	}
	if n := binary.BigEndian.Uint16(udp[4:6]); n != 90 {
		t.Fatalf("udp length = %d", n)
	}
	if len(p.Payload()) != 124-42 {
		t.Fatalf("payload len = %d", len(p.Payload()))
	}
}

func TestUDPChecksums(t *testing.T) {
	p, _ := testUDPFill()
	p.CalcChecksums()
	if !p.IP().VerifyChecksum() {
		t.Fatal("IP checksum invalid")
	}
	if !p.VerifyChecksums() {
		t.Fatal("UDP checksum invalid")
	}
	// Corrupt a payload byte: UDP checksum must now fail.
	p.Payload()[0] ^= 0xff
	if p.VerifyChecksums() {
		t.Fatal("corrupted packet verified")
	}
}

// Property: for random addresses/ports/sizes, filled+checksummed UDP
// packets always verify, and the IP checksum survives the per-packet
// source-IP modification + re-checksum pattern from the paper's
// Listing 2.
func TestUDPFillChecksumProperty(t *testing.T) {
	f := func(srcIP, dstIP uint32, sp, dp uint16, sizeSeed uint16, payload []byte) bool {
		size := 60 + int(sizeSeed%1400)
		b := make([]byte, size)
		p := UDPPacket{B: b}
		p.Fill(UDPPacketFill{
			PktLength: size,
			IPSrc:     IPv4(srcIP), IPDst: IPv4(dstIP),
			UDPSrc: sp, UDPDst: dp,
		})
		copy(p.Payload(), payload)
		p.CalcChecksums()
		return p.VerifyChecksums()
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestIPv4HeaderFieldRoundTrip(t *testing.T) {
	h := IPv4Hdr(make([]byte, 20))
	h.SetVersionIHL(20)
	h.SetTOS(0x2e)
	h.SetTotalLength(1500)
	h.SetID(0xBEEF)
	h[6], h[7] = 0x44, 0xd2 // flags 2 (don't fragment), fragment offset 1234
	h.SetTTL(33)
	h.SetProtocol(IPProtoTCP)
	h.SetSrc(MustIPv4("1.2.3.4"))
	h.SetDst(MustIPv4("5.6.7.8"))
	want := []byte{0x45, 0x2e, 0x05, 0xdc, 0xbe, 0xef, 0x44, 0xd2, 33, IPProtoTCP, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}
	if !bytes.Equal(h, want) {
		t.Fatalf("header = % x\nwant     % x", []byte(h), want)
	}
	if h.HdrLen() != 20 || h.TotalLength() != 1500 || h.Protocol() != IPProtoTCP {
		t.Fatal("read-back fields wrong")
	}
	if h.Src() != MustIPv4("1.2.3.4") || h.Dst() != MustIPv4("5.6.7.8") {
		t.Fatal("read-back addresses wrong")
	}
}

func TestTCPPacketFill(t *testing.T) {
	b := make([]byte, 60)
	p := TCPPacket{B: b}
	p.Fill(TCPPacketFill{
		PktLength: 60,
		IPSrc:     MustIPv4("10.0.0.1"),
		IPDst:     MustIPv4("10.0.0.2"),
		TCPSrc:    4444, TCPDst: 80,
		SeqNum: 1000, AckNum: 2000,
		Flags: TCPFlagSYN | TCPFlagACK,
	})
	tcp := p.TCP()
	if tcp.SrcPort() != 4444 || tcp.DstPort() != 80 || tcp.DataOffset() != 20 {
		t.Fatal("ports or data offset wrong")
	}
	want := []byte{
		0x11, 0x5c, 0x00, 0x50, // ports 4444 -> 80
		0x00, 0x00, 0x03, 0xe8, // seq 1000
		0x00, 0x00, 0x07, 0xd0, // ack 2000
		0x50, TCPFlagSYN | TCPFlagACK, 0xff, 0xff, // data offset, flags, window 65535
		0, 0, 0, 0, // checksum, urgent pointer
	}
	if !bytes.Equal(tcp[:TCPHdrLen], want) {
		t.Fatalf("tcp header = % x\nwant         % x", []byte(tcp[:TCPHdrLen]), want)
	}
	p.CalcChecksums()
	if !p.VerifyChecksums() {
		t.Fatal("TCP checksums invalid")
	}
	p.B[50] ^= 1
	if p.VerifyChecksums() {
		t.Fatal("corrupted TCP packet verified")
	}
}

func TestICMPPacketFill(t *testing.T) {
	b := make([]byte, 64)
	p := ICMPPacket{B: b}
	p.Fill(ICMPPacketFill{
		PktLength: 64,
		IPSrc:     MustIPv4("10.0.0.1"),
		IPDst:     MustIPv4("10.0.0.2"),
		ID:        7, Seq: 9,
	})
	ic := p.ICMP()
	if ic.Type() != ICMPTypeEcho || binary.BigEndian.Uint16(ic[4:6]) != 7 || binary.BigEndian.Uint16(ic[6:8]) != 9 {
		t.Fatal("icmp fields wrong")
	}
	if !ic.VerifyChecksumV4(64 - EthHdrLen - IPv4HdrLen) {
		t.Fatal("icmp checksum invalid")
	}
}

func TestPTPPacketFill(t *testing.T) {
	b := make([]byte, 60)
	p := PTPPacket{B: b}
	p.Fill(PTPPacketFill{
		PktLength:   60,
		MessageType: PTPMsgDelayReq,
		SequenceID:  555,
	})
	if p.Eth().EtherType() != EtherTypePTP {
		t.Fatalf("ethertype = %#x", p.Eth().EtherType())
	}
	h := p.PTP()
	if h.MessageType() != PTPMsgDelayReq || h.Version() != PTPVersion2 {
		t.Fatal("ptp header wrong")
	}
	if h.SequenceID() != 555 {
		t.Fatalf("seq = %d", h.SequenceID())
	}
	if !IsTimestampedType(h.MessageType()) {
		t.Fatal("delay_req must be a timestamped type")
	}
	if IsTimestampedType(PTPMsgNoTimestamp) {
		t.Fatal("filler type must not be timestamped")
	}
}

func TestUDPPTPPacketFill(t *testing.T) {
	b := make([]byte, PTPMinUDPSize)
	p := UDPPTPPacket{B: b}
	p.Fill(UDPPTPPacketFill{
		PktLength:   PTPMinUDPSize,
		IPSrc:       MustIPv4("10.0.0.1"),
		IPDst:       MustIPv4("10.0.0.2"),
		MessageType: PTPMsgSync,
		SequenceID:  77,
	})
	if p.UDPView().UDP().DstPort() != PTPUDPPort {
		t.Fatalf("udp dst = %d", p.UDPView().UDP().DstPort())
	}
	if p.PTP().SequenceID() != 77 {
		t.Fatal("seq wrong")
	}
	p.UDPView().CalcChecksums()
	if !p.UDPView().VerifyChecksums() {
		t.Fatal("checksum invalid")
	}
}

func TestARPPacketFill(t *testing.T) {
	b := make([]byte, 60)
	src := MAC{0x02, 0, 0, 0, 0, 1}
	EthHdr(b).Fill(EthFill{Src: src, Dst: BroadcastMAC, EtherType: EtherTypeARP})
	a := ARPHdr(b[EthHdrLen:])
	a.Fill(ARPFill{
		SenderMAC: src,
		SenderIP:  MustIPv4("10.0.0.1"),
		TargetIP:  MustIPv4("10.0.0.2"),
	})
	if EthHdr(b).EtherType() != EtherTypeARP || MAC(b[0:6]) != BroadcastMAC {
		t.Fatal("ARP request not broadcast")
	}
	if a.Op() != ARPOpRequest {
		t.Fatalf("op = %d", a.Op())
	}
	if a.SenderMAC() != src {
		t.Fatal("sender MAC wrong")
	}
	if binary.BigEndian.Uint16(a[0:2]) != ARPHTypeEthernet || binary.BigEndian.Uint16(a[2:4]) != EtherTypeIPv4 || a[4] != 6 || a[5] != 4 {
		t.Fatal("htype/ptype/address lengths wrong")
	}
	if a.SenderIP().String() != "10.0.0.1" || a.TargetIP().String() != "10.0.0.2" {
		t.Fatal("IPs wrong")
	}
}

func TestWireLen(t *testing.T) {
	// 60-byte frame = 64 with FCS = 84 bytes of wire time. At 10 GbE
	// (0.8 ns/B) that is 67.2 ns -> 14.88 Mpps.
	if WireLen(60) != 84 {
		t.Fatalf("WireLen(60) = %d", WireLen(60))
	}
	pps := 10e9 / 8 / float64(WireLen(60))
	if pps < 14.87e6 || pps > 14.89e6 {
		t.Fatalf("line rate = %f pps", pps)
	}
}

func TestFillTooShortPanics(t *testing.T) {
	fns := []func(){
		func() { UDPPacket{B: make([]byte, 10)}.Fill(UDPPacketFill{PktLength: 10}) },
		func() { TCPPacket{B: make([]byte, 10)}.Fill(TCPPacketFill{PktLength: 10}) },
		func() { ICMPPacket{B: make([]byte, 10)}.Fill(ICMPPacketFill{PktLength: 10}) },
		func() { PTPPacket{B: make([]byte, 10)}.Fill(PTPPacketFill{PktLength: 10}) },
	}
	for i, fn := range fns {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("fill %d: too-short packet did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkUDPFill(b *testing.B) {
	buf := make([]byte, 124)
	p := UDPPacket{B: buf}
	cfg := UDPPacketFill{
		PktLength: 124,
		IPSrc:     MustIPv4("10.0.0.1"), IPDst: MustIPv4("192.168.1.1"),
		UDPSrc: 1234, UDPDst: 319,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Fill(cfg)
	}
}

// BenchmarkModifySrcIP measures the Listing 2 hot path: modifying one
// field in a pre-filled packet.
func BenchmarkModifySrcIP(b *testing.B) {
	buf := make([]byte, 124)
	p := UDPPacket{B: buf}
	p.Fill(UDPPacketFill{PktLength: 124})
	base := MustIPv4("10.0.0.1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.IP().SetSrc(base + IPv4(i&0xff))
	}
}

func BenchmarkUDPSoftwareChecksum(b *testing.B) {
	buf := make([]byte, 124)
	p := UDPPacket{B: buf}
	p.Fill(UDPPacketFill{PktLength: 124})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.CalcChecksums()
	}
}
