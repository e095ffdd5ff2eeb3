package proto

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestChecksumRFC1071 checks the classic worked example from RFC 1071.
func TestChecksumRFC1071(t *testing.T) {
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	// Sum = 0001 + f203 + f4f5 + f6f7 = 2ddf0 -> fold: ddf2 -> ^ = 220d.
	if got := Checksum(data); got != 0x220d {
		t.Fatalf("checksum = %#04x, want 0x220d", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	// Odd trailing byte is padded with zero on the right.
	if got, want := Checksum([]byte{0x01}), ^uint16(0x0100); got != want {
		t.Fatalf("checksum = %#04x, want %#04x", got, want)
	}
}

func TestChecksumEmpty(t *testing.T) {
	if got := Checksum(nil); got != 0xffff {
		t.Fatalf("checksum(nil) = %#04x", got)
	}
}

// Property: inserting the computed checksum makes the data verify to 0.
func TestChecksumSelfVerifyProperty(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) < 2 {
			return true
		}
		if len(data)%2 == 1 {
			data = data[:len(data)-1]
		}
		data[0], data[1] = 0, 0
		cs := Checksum(data)
		data[0], data[1] = byte(cs>>8), byte(cs)
		return Checksum(data) == 0
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(4))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestUDPChecksumZeroMapsToFFFF(t *testing.T) {
	// Construct a segment whose checksum computes to zero and check
	// the RFC 768 substitution.
	src, dst := MustIPv4("0.0.0.0"), MustIPv4("0.0.0.0")
	seg := make([]byte, 8) // all zero
	// acc = proto(17) + len(8) twice... compute the real value, then
	// craft a payload that cancels it to zero.
	cs := TransportChecksumIPv4(src, dst, IPProtoUDP, seg)
	if cs == 0 {
		t.Fatal("test setup: checksum already zero")
	}
	// Put the complement in the payload so the final sum is 0xffff
	// (one's-complement negative zero) -> checksum 0 -> mapped 0xffff.
	seg = append(seg, byte(^cs>>8), byte(^cs))
	// Adding bytes changes the length term; recompute by brute force:
	// find a 2-byte payload value that yields 0.
	found := false
	for v := 0; v < 0x10000; v++ {
		seg[8], seg[9] = byte(v>>8), byte(v)
		if got := TransportChecksumIPv4(src, dst, IPProtoUDP, seg); got == 0xffff {
			// Check that raw computation was zero, i.e. substitution.
			acc := PseudoHeaderChecksumIPv4(src, dst, IPProtoUDP, uint16(len(seg)))
			if finishChecksum(sum16(seg, acc)) == 0 {
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("no payload value triggered the zero-checksum substitution")
	}
}

func TestTCPChecksumAllowsZero(t *testing.T) {
	// TCP has no zero substitution; verify a crafted zero stays zero.
	src, dst := IPv4(0), IPv4(0)
	seg := make([]byte, 4)
	for v := 0; v < 0x10000; v++ {
		seg[2], seg[3] = byte(v>>8), byte(v)
		if TransportChecksumIPv4(src, dst, IPProtoTCP, seg) == 0 {
			return // found a zero result; substitution absent as expected
		}
	}
	t.Fatal("no zero TCP checksum found; expected at least one")
}

func BenchmarkChecksum64B(b *testing.B) {
	data := make([]byte, 64)
	b.SetBytes(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Checksum(data)
	}
}
