package ring_test

import (
	"testing"

	"repro/internal/mempool"
	"repro/internal/nic"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/wire"
)

// A Ring is unbounded; the rte_ring burst short counts that MoonGen's
// queue:send and queue:recv loops rely on come from the NIC's
// descriptor rings, which keep their bound over a Ring. These tests
// pin those short counts through the NIC's burst API, Send and
// RecvBurst.

// burstPair builds two connected X540 ports, the sender with a TX
// descriptor ring of txRing and the receiver with an RX ring of rxRing.
func burstPair(txRing, rxRing int) (*sim.Engine, *nic.Port, *nic.Port) {
	eng := sim.NewEngine(5)
	a := nic.NewPort(eng, nic.PortConfig{Profile: nic.ChipX540, ID: 0, TxRingSize: txRing})
	b := nic.NewPort(eng, nic.PortConfig{Profile: nic.ChipX540, ID: 1, RxRingSize: rxRing})
	nic.ConnectDuplex(eng, a, b, wire.PHY10GBaseT, 2)
	return eng, a, b
}

// udpBufs allocates n minimum-size UDP packets with source ports 1000,
// 1001, …, so a receiver can read back their order.
func udpBufs(t *testing.T, n int) []*mempool.Mbuf {
	t.Helper()
	pool := mempool.New(mempool.Config{Count: 64})
	bufs := make([]*mempool.Mbuf, n)
	for i := range bufs {
		bufs[i] = pool.Alloc(60)
		(proto.UDPPacket{B: bufs[i].Payload()}).Fill(proto.UDPPacketFill{
			PktLength: 60,
			EthSrc:    proto.MAC{0x02, 0, 0, 0, 0, 0x01},
			EthDst:    proto.MAC{0x02, 0, 0, 0, 0, 0x02},
			IPSrc:     proto.MustIPv4("10.0.0.1"),
			IPDst:     proto.MustIPv4("10.0.0.2"),
			UDPSrc:    uint16(1000 + i),
			UDPDst:    42,
		})
	}
	return bufs
}

// expectInOrder checks that the received frames got are the packets
// with source ports first, first+1, … and releases them.
func expectInOrder(t *testing.T, q *nic.RxQueue, got []*mempool.Mbuf, first int) {
	t.Helper()
	for i, m := range got {
		if p := (proto.UDPPacket{B: m.Payload()}).UDP().SrcPort(); p != uint16(first+i) {
			t.Fatalf("frame %d has source port %d, want %d", i, p, first+i)
		}
	}
	q.Release()
}

// TestSPSCBulkShortCount: a burst of 10 onto an 8-descriptor TX ring
// is accepted short, 8, and a 16-slot receive burst then returns those
// 8, in order.
func TestSPSCBulkShortCount(t *testing.T) {
	eng, a, b := burstPair(8, 0)
	bufs := udpBufs(t, 10)
	eng.Schedule(0, func() {
		if n := a.GetTxQueue(0).Send(bufs); n != 8 {
			t.Errorf("Send(10) onto a ring of 8 = %d, want 8", n)
		}
	})
	eng.RunAll()
	for _, m := range bufs[8:] {
		m.Free()
	}
	out := make([]*mempool.Mbuf, 16)
	q := b.GetRxQueue(0)
	n := q.RecvBurst(out)
	if n != 8 {
		t.Fatalf("RecvBurst(16) = %d, want 8", n)
	}
	expectInOrder(t, q, out[:n], 1000)
}

// TestBurstNamesAreCanonical: RecvBurst, the receive burst of the
// datapath, returns min(len(out), queued) in order and 0 on an empty
// ring; an 8-descriptor RX ring takes 8 of 10 back-to-back frames and
// counts the other 2 as missed.
func TestBurstNamesAreCanonical(t *testing.T) {
	eng, a, b := burstPair(0, 8)
	bufs := udpBufs(t, 10)
	eng.Schedule(0, func() {
		if n := a.GetTxQueue(0).Send(bufs); n != 10 {
			t.Errorf("Send(10) onto an empty default ring = %d", n)
		}
	})
	eng.RunAll()
	if missed := b.CounterSnapshot().RxMissed; missed != 2 {
		t.Fatalf("RxMissed = %d, want 2 (ring of 8)", missed)
	}
	q := b.GetRxQueue(0)
	out := make([]*mempool.Mbuf, 16)
	if n := q.RecvBurst(out[:3]); n != 3 {
		t.Fatalf("RecvBurst(3) with 8 queued = %d, want 3", n)
	}
	expectInOrder(t, q, out[:3], 1000)
	if n := q.RecvBurst(out); n != 5 {
		t.Fatalf("RecvBurst(16) with 5 queued = %d, want 5", n)
	} else {
		expectInOrder(t, q, out[:n], 1003)
	}
	if n := q.RecvBurst(out); n != 0 {
		t.Fatalf("RecvBurst on an empty ring = %d", n)
	}
}
