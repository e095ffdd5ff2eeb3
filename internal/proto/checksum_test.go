package proto

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

// byteSum16 is the reference for sum16: RFC 1071's plain loop over
// 16-bit words, an odd trailing byte padded with zero. It accumulates
// in 64 bits, so an acc near 2^32-1 cannot wrap, and folds to 16 bits
// with end-around carry.
func byteSum16(data []byte, acc uint32) uint32 {
	s := uint64(acc)
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		s += uint64(binary.BigEndian.Uint16(data[i:]))
	}
	if n%2 == 1 {
		s += uint64(data[n-1]) << 8
	}
	for s>>16 != 0 {
		s = s&0xffff + s>>16
	}
	return uint32(s)
}

// checkSum16 fails t unless the word-wide kernel finishes to the same
// checksum as the byte-pair reference.
func checkSum16(t testing.TB, data []byte, acc uint32) {
	t.Helper()
	if got, want := finishChecksum(sum16(data, acc)), finishChecksum(byteSum16(data, acc)); got != want {
		t.Fatalf("len %d acc %#x: checksum %#04x, byte-pair reference %#04x", len(data), acc, got, want)
	}
}

// TestSum16MatchesBytePairProperty compares the word-wide kernel with
// the byte-pair reference over every length 0-128 (odd ones too, so
// each tail shape), on all-zero data with acc 0 (the 0xFFFF corner
// only an all-zero sum reaches), on all-ones data, and on seeded
// random data with accumulators spread over the full range and packed
// near 2^32-1.
func TestSum16MatchesBytePairProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	accs := []uint32{0, 1, 0xffff, 0x10000, 0xfffffffe, 0xffffffff}
	buf := make([]byte, 128)
	for n := 0; n <= len(buf); n++ {
		data := buf[:n]
		clear(data)
		if got := finishChecksum(sum16(data, 0)); got != 0xffff {
			t.Fatalf("len %d all-zero: checksum %#04x, want 0xffff", n, got)
		}
		for i := range data {
			data[i] = 0xff
		}
		for _, acc := range accs {
			checkSum16(t, data, acc)
		}
		for trial := 0; trial < 20; trial++ {
			rng.Read(data)
			checkSum16(t, data, rng.Uint32())
			checkSum16(t, data, 0xffffffff-uint32(rng.Intn(1<<20)))
			for _, acc := range accs {
				checkSum16(t, data, acc)
			}
		}
	}
}

// FuzzSum16 compares the word-wide kernel with the byte-pair
// reference on arbitrary data and accumulators.
func FuzzSum16(f *testing.F) {
	f.Add([]byte{}, uint32(0))
	f.Add([]byte{0}, uint32(0))
	f.Add([]byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}, uint32(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint32(0xffffffff))
	f.Add(make([]byte, 64), uint32(0xfffffffe))
	f.Fuzz(func(t *testing.T, data []byte, acc uint32) {
		checkSum16(t, data, acc)
	})
}

// TestUDPChecksumComputedZeroProperty builds, for every segment length
// and seeded random content, a segment whose byte-pair sum folds to
// 0xFFFF (a computed checksum of zero) and checks that
// TransportChecksumIPv4 transmits it as 0xFFFF, as RFC 768 requires.
func TestUDPChecksumComputedZeroProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(768))
	for n := UDPHdrLen + 2; n <= 128; n++ {
		for trial := 0; trial < 10; trial++ {
			src, dst := IPv4(rng.Uint32()), IPv4(rng.Uint32())
			seg := make([]byte, n)
			rng.Read(seg)
			UDPHdr(seg).SetChecksum(0)
			// The last even-aligned word balances the sum to 0xFFFF.
			w := seg[UDPHdrLen:][:2]
			w[0], w[1] = 0, 0
			acc := PseudoHeaderChecksumIPv4(src, dst, IPProtoUDP, uint16(n))
			binary.BigEndian.PutUint16(w, ^uint16(byteSum16(seg, acc)))
			if finishChecksum(byteSum16(seg, acc)) != 0 {
				t.Fatal("test setup: segment does not compute to zero")
			}
			if got := TransportChecksumIPv4(src, dst, IPProtoUDP, seg); got != 0xffff {
				t.Fatalf("len %d: computed-zero UDP checksum sent as %#04x, want 0xffff", n, got)
			}
		}
	}
}

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
