package proto

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMACProperties(t *testing.T) {
	if s := BroadcastMAC.String(); s != "ff:ff:ff:ff:ff:ff" {
		t.Fatalf("broadcast = %q", s)
	}
	m := MAC{0x10, 0x11, 0x12, 0x13, 0x14, 0xab}
	if s := m.String(); s != "10:11:12:13:14:ab" {
		t.Fatalf("String = %q", s)
	}
}

func TestParseIPv4(t *testing.T) {
	ip, err := ParseIPv4("10.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	if ip != 0x0A000001 {
		t.Fatalf("ip = %#x", uint32(ip))
	}
	if ip.String() != "10.0.0.1" {
		t.Fatalf("String = %q", ip.String())
	}
	// Address arithmetic as used in MoonGen scripts: baseIP + offset.
	if (ip + 255).String() != "10.0.1.0" {
		t.Fatalf("arithmetic: %v", (ip + 255).String())
	}
	for _, bad := range []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d"} {
		if _, err := ParseIPv4(bad); err == nil {
			t.Errorf("ParseIPv4(%q) succeeded", bad)
		}
	}
}

func TestIPv4RoundTripProperty(t *testing.T) {
	f := func(v uint32) bool {
		ip := IPv4(v)
		back, err := ParseIPv4(ip.String())
		if err != nil {
			return false
		}
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], v)
		return back == ip && IPv4FromBytes(b[:]) == ip
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
