package proto

import "encoding/binary"

// ARP constants for Ethernet/IPv4.
const (
	ARPHTypeEthernet uint16 = 1
	ARPOpRequest     uint16 = 1
	ARPOpReply       uint16 = 2
)

// ARPHdr is a zero-copy view of an Ethernet/IPv4 ARP packet.
type ARPHdr []byte

// Op returns the operation (request/reply).
func (h ARPHdr) Op() uint16 { return binary.BigEndian.Uint16(h[6:8]) }

// SetOp sets the operation.
func (h ARPHdr) SetOp(v uint16) { binary.BigEndian.PutUint16(h[6:8], v) }

// SenderMAC returns the sender hardware address.
func (h ARPHdr) SenderMAC() MAC {
	var m MAC
	copy(m[:], h[8:14])
	return m
}

// SetSenderMAC sets the sender hardware address.
func (h ARPHdr) SetSenderMAC(m MAC) { copy(h[8:14], m[:]) }

// SenderIP returns the sender protocol address.
func (h ARPHdr) SenderIP() IPv4 { return IPv4FromBytes(h[14:18]) }

// SetSenderIP sets the sender protocol address.
func (h ARPHdr) SetSenderIP(ip IPv4) { binary.BigEndian.PutUint32(h[14:18], uint32(ip)) }

// SetTargetMAC sets the target hardware address.
func (h ARPHdr) SetTargetMAC(m MAC) { copy(h[18:24], m[:]) }

// TargetIP returns the target protocol address.
func (h ARPHdr) TargetIP() IPv4 { return IPv4FromBytes(h[24:28]) }

// SetTargetIP sets the target protocol address.
func (h ARPHdr) SetTargetIP(ip IPv4) { binary.BigEndian.PutUint32(h[24:28], uint32(ip)) }

// ARPFill is the Fill configuration for an ARP packet.
type ARPFill struct {
	Op        uint16 // default ARPOpRequest
	SenderMAC MAC
	SenderIP  IPv4
	TargetMAC MAC
	TargetIP  IPv4
}

// Fill writes a complete Ethernet/IPv4 ARP body.
func (h ARPHdr) Fill(cfg ARPFill) {
	binary.BigEndian.PutUint16(h[0:2], ARPHTypeEthernet)
	binary.BigEndian.PutUint16(h[2:4], EtherTypeIPv4)
	h[4] = 6 // hardware address length
	h[5] = 4 // protocol address length
	if cfg.Op == 0 {
		cfg.Op = ARPOpRequest
	}
	h.SetOp(cfg.Op)
	h.SetSenderMAC(cfg.SenderMAC)
	h.SetSenderIP(cfg.SenderIP)
	h.SetTargetMAC(cfg.TargetMAC)
	h.SetTargetIP(cfg.TargetIP)
}
