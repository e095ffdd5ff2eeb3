// Package proto implements the packet header library used by the
// generator: Ethernet, ARP, IPv4, UDP, TCP, ICMP and PTP headers — the
// protocols the paper's scenarios emit and parse — with zero-copy
// accessors over raw frame bytes, MoonGen-style Fill helpers, and
// Internet checksums (including the IPv4 pseudo-header sum the NICs do
// not offload).
//
// The design follows MoonGen's packet API: a header type is a []byte
// view into the frame, field setters write network byte order in place,
// and packet views (UDPPacket, TCPPacket, ...) stack the headers for a
// protocol combination so that a transmit loop can pre-fill every field
// once and touch only the fields that vary per packet.
package proto

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// MAC is an Ethernet hardware address.
type MAC [6]byte

// BroadcastMAC is ff:ff:ff:ff:ff:ff.
var BroadcastMAC = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// String formats the address as colon-separated hex.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IPv4 is an IPv4 address in host-independent representation; the
// underlying uint32 is the address in its natural big-endian value
// (10.0.0.1 == 0x0A000001), which makes address arithmetic like
// "baseIP + i" from MoonGen scripts natural.
type IPv4 uint32

// ParseIPv4 parses dotted-quad notation. It is MoonGen's
// parseIPAddress for IPv4.
func ParseIPv4(s string) (IPv4, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("proto: invalid IPv4 %q", s)
	}
	var v uint32
	for _, p := range parts {
		o, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("proto: invalid IPv4 %q: %v", s, err)
		}
		v = v<<8 | uint32(o)
	}
	return IPv4(v), nil
}

// MustIPv4 is ParseIPv4 that panics on error.
func MustIPv4(s string) IPv4 {
	ip, err := ParseIPv4(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// String formats the address as dotted quad.
func (ip IPv4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// IPv4FromBytes builds an address from 4 network-order bytes.
func IPv4FromBytes(b []byte) IPv4 {
	return IPv4(binary.BigEndian.Uint32(b))
}
