package proto

import (
	"bytes"
	"math/rand"
	"testing"
)

// edgeWords biases random field values toward the one's-complement
// corner cases: 0x0000 and 0xFFFF are the two representations of zero,
// and values adjacent to them exercise the carry-fold boundaries of
// RFC 1624 §3.
func edgeWord(rng *rand.Rand) uint16 {
	switch rng.Intn(4) {
	case 0:
		return 0x0000
	case 1:
		return 0xffff
	case 2:
		return []uint16{0x0001, 0xfffe, 0x8000, 0x7fff}[rng.Intn(4)]
	default:
		return uint16(rng.Uint32())
	}
}

// TestUpdateChecksum16MatchesRecompute is the incremental-checksum
// property: starting from a realistic IPv4 header, any sequence of
// single-word mutations maintained through UpdateChecksum16 yields the
// same checksum as a full RFC 1071 recompute — including mutations to
// and from 0x0000/0xFFFF, the negative-zero representations where the
// folded arithmetic could diverge.
func TestUpdateChecksum16MatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		hdr := make([]byte, IPv4HdrLen)
		for i := range hdr {
			hdr[i] = byte(rng.Uint32())
		}
		hdr[0] = 0x45 // version/IHL: every real header is non-zero
		ip := IPv4Hdr(hdr)
		ip.SetHeaderChecksum(0)
		cs := Checksum(hdr)
		ip.SetHeaderChecksum(cs)

		for step := 0; step < 50; step++ {
			// Mutate one non-checksum 16-bit word.
			off := []int{0, 2, 4, 6, 8, 12, 14, 16, 18}[rng.Intn(9)]
			old := uint16(hdr[off])<<8 | uint16(hdr[off+1])
			v := edgeWord(rng)
			if off == 0 {
				// Keep version/IHL intact; only the TOS byte may vary.
				v = 0x4500 | v&0x00ff
			}
			hdr[off], hdr[off+1] = byte(v>>8), byte(v)
			cs = UpdateChecksum16(cs, old, v)
			ip.SetHeaderChecksum(cs)

			// Full recompute for comparison.
			ip.SetHeaderChecksum(0)
			want := Checksum(hdr)
			ip.SetHeaderChecksum(cs)
			if cs != want {
				t.Fatalf("trial %d step %d: incremental %#04x != recompute %#04x (off %d, %#04x->%#04x)",
					trial, step, cs, want, off, old, v)
			}
			if !ip.VerifyChecksum() {
				t.Fatalf("trial %d step %d: header does not verify", trial, step)
			}
		}
	}
}

// TestTemplateApplyMatchesFill pins the byte-exactness contract: Apply
// writes exactly the bytes the packet views' Fill methods write
// (checksums left zero), for both L4 variants and with a TOS tweak.
func TestTemplateApplyMatchesFill(t *testing.T) {
	src, dst := MustIPv4("10.0.0.1"), MustIPv4("10.1.0.1")
	ethSrc := MAC{0x02, 0, 0, 0, 0, 1}
	ethDst := MAC{0x02, 0, 0, 0, 0, 2}

	udpCfg := UDPPacketFill{
		PktLength: 60, EthSrc: ethSrc, EthDst: ethDst,
		IPSrc: src, IPDst: dst, UDPSrc: 1000, UDPDst: 2000, TOS: 0xb8,
	}
	ref := make([]byte, 60)
	UDPPacket{B: ref}.Fill(udpCfg)
	got := make([]byte, 60)
	NewUDPTemplate(udpCfg).Apply(got)
	if !bytes.Equal(ref, got) {
		t.Fatalf("UDP template image differs from Fill:\n ref %x\n got %x", ref, got)
	}

	tcpCfg := TCPPacketFill{
		PktLength: 74, EthSrc: ethSrc, EthDst: ethDst,
		IPSrc: src, IPDst: dst, TCPSrc: 1000, TCPDst: 2000,
	}
	ref = make([]byte, 74)
	TCPPacket{B: ref}.Fill(tcpCfg)
	IPv4Hdr(ref[EthHdrLen:]).SetTOS(0x10)
	tmpl := NewTCPTemplate(tcpCfg)
	tmpl.SetTOS(0x10)
	got = make([]byte, 74)
	tmpl.Apply(got)
	if !bytes.Equal(ref, got) {
		t.Fatalf("TCP template image differs from Fill+SetTOS:\n ref %x\n got %x", ref, got)
	}
}

// TestTemplateIncrementalChecksums is the tentpole's end-to-end
// property: a template whose live IP checksum and cached transport sum
// are maintained through incremental setters produces, after any
// randomized mutation sequence, exactly the checksums a from-scratch
// CalcChecksums computes over the same bytes — the template fill path
// and the full recompute path are interchangeable bit for bit.
func TestTemplateIncrementalChecksums(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const pktLen = 60
	for trial := 0; trial < 200; trial++ {
		tmpl := NewUDPTemplate(UDPPacketFill{
			PktLength: pktLen,
			IPSrc:     MustIPv4("10.0.0.1"), IPDst: MustIPv4("10.1.0.1"),
			UDPSrc: 1000, UDPDst: 2000,
		})
		tmpl.CalcIPChecksum()

		payload := make([]byte, pktLen-tmplL4Off-UDPHdrLen)
		for step := 0; step < 30; step++ {
			switch rng.Intn(5) {
			case 0:
				tmpl.SetIPSrc(IPv4(uint32(edgeWord(rng))<<16 | uint32(edgeWord(rng))))
			case 1:
				tmpl.SetIPDst(IPv4(uint32(edgeWord(rng))<<16 | uint32(edgeWord(rng))))
			case 2:
				tmpl.SetIPID(edgeWord(rng))
			case 3:
				tmpl.SetTOS(uint8(edgeWord(rng)))
			default:
				tmpl.SetDstPort(edgeWord(rng))
			}
			// Randomize the payload, with all-0x00/0xFF runs mixed in to
			// push the folded sum across the 0x0000/0xFFFF boundary.
			switch rng.Intn(3) {
			case 0:
				for i := range payload {
					payload[i] = 0x00
				}
			case 1:
				for i := range payload {
					payload[i] = 0xff
				}
			default:
				rng.Read(payload)
			}

			// Template path: Apply + incremental checksums.
			got := make([]byte, pktLen)
			tmpl.Apply(got)
			copy(got[tmplL4Off+UDPHdrLen:], payload)
			gotUDP := tmpl.TransportChecksum(payload)
			UDPPacket{B: got}.UDP().SetChecksum(gotUDP)

			// Reference path: same bytes, checksums from scratch.
			want := make([]byte, pktLen)
			copy(want, got)
			wp := UDPPacket{B: want}
			wp.IP().SetHeaderChecksum(0)
			wp.UDP().SetChecksum(0)
			wp.CalcChecksums()

			if !bytes.Equal(got, want) {
				t.Fatalf("trial %d step %d: template packet differs from recompute\n got %x\nwant %x",
					trial, step, got, want)
			}
			if !(UDPPacket{B: got}).VerifyChecksums() {
				t.Fatalf("trial %d step %d: packet does not verify", trial, step)
			}
		}
	}
}

// TestTemplateTransportChecksumTCP covers the TCP variant (no RFC 768
// zero substitution) of the cached-sum transport checksum.
func TestTemplateTransportChecksumTCP(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const pktLen = 74
	tmpl := NewTCPTemplate(TCPPacketFill{
		PktLength: pktLen,
		IPSrc:     MustIPv4("10.0.0.1"), IPDst: MustIPv4("10.1.0.1"),
		TCPSrc: 1000, TCPDst: 2000,
	})
	payload := make([]byte, pktLen-tmplL4Off-TCPHdrLen)
	for step := 0; step < 200; step++ {
		tmpl.SetDstPort(edgeWord(rng))
		rng.Read(payload)

		pkt := make([]byte, pktLen)
		tmpl.Apply(pkt)
		copy(pkt[tmplL4Off+TCPHdrLen:], payload)
		ip := TCPPacket{B: pkt}.IP()
		seg := pkt[EthHdrLen+IPv4HdrLen:]
		want := TransportChecksumIPv4(ip.Src(), ip.Dst(), IPProtoTCP, seg)
		if got := tmpl.TransportChecksum(payload); got != want {
			t.Fatalf("step %d: cached-sum checksum %#04x != recompute %#04x", step, got, want)
		}
	}
}

// BenchmarkTemplateApply measures the template fill against the full
// per-packet Fill it replaces in the transmit loops.
func BenchmarkTemplateApply(b *testing.B) {
	tmpl := NewUDPTemplate(UDPPacketFill{
		PktLength: 60,
		IPSrc:     MustIPv4("10.0.0.1"), IPDst: MustIPv4("10.1.0.1"),
		UDPSrc: 1000, UDPDst: 2000,
	})
	buf := make([]byte, 60)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tmpl.Apply(buf)
	}
}

func BenchmarkFullFill(b *testing.B) {
	cfg := UDPPacketFill{
		PktLength: 60,
		IPSrc:     MustIPv4("10.0.0.1"), IPDst: MustIPv4("10.1.0.1"),
		UDPSrc: 1000, UDPDst: 2000,
	}
	buf := make([]byte, 60)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		UDPPacket{B: buf}.Fill(cfg)
	}
}
