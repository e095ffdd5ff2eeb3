package nic

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/mempool"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/wire"
)

// recvOne receives a single frame from q, if one is waiting: a view
// valid until q.Release.
func recvOne(q *RxQueue) (*mempool.Mbuf, bool) {
	var one [1]*mempool.Mbuf
	if q.RecvBurst(one[:]) == 0 {
		return nil, false
	}
	return one[0], true
}

// rxCount empties q, releasing every frame, and returns how many it held.
func rxCount(q *RxQueue) int {
	n := 0
	for _, ok := recvOne(q); ok; _, ok = recvOne(q) {
		q.Release()
		n++
	}
	return n
}

// pending pulls the port's due arrivals and returns how many frames
// wait in q's ring.
func pending(q *RxQueue) int {
	q.port.PullRx()
	return q.ring.Len()
}

// testPair builds two connected X540 ports.
func testPair(t *testing.T, seed int64) (*sim.Engine, *Port, *Port) {
	t.Helper()
	eng := sim.NewEngine(seed)
	a := NewPort(eng, PortConfig{Profile: ChipX540, ID: 0, TxQueues: 2, RxQueues: 2})
	b := NewPort(eng, PortConfig{Profile: ChipX540, ID: 1, TxQueues: 2, RxQueues: 2})
	ConnectDuplex(eng, a, b, wire.PHY10GBaseT, 2)
	return eng, a, b
}

// makeUDP allocates a UDP packet from pool with the given source port.
// It returns nil when the pool is dry (all buffers in flight); callers
// back off and retry, as a DPDK transmit loop does.
func makeUDP(pool *mempool.Pool, size int, udpSrc uint16) *mempool.Mbuf {
	m := pool.Alloc(size)
	if m == nil {
		return nil
	}
	p := proto.UDPPacket{B: m.Payload()}
	p.Fill(proto.UDPPacketFill{
		PktLength: size,
		EthSrc:    proto.MAC{0x02, 0, 0, 0, 0, 0x01},
		EthDst:    proto.MAC{0x02, 0, 0, 0, 0, 0x02},
		IPSrc:     proto.MustIPv4("10.0.0.1"),
		IPDst:     proto.MustIPv4("10.0.0.2"),
		UDPSrc:    udpSrc,
		UDPDst:    42,
	})
	return m
}

// pumpQueue keeps q saturated with UDP packets until the run ends,
// backing off when the pool or the descriptor ring is full.
func pumpQueue(p *sim.Proc, pool *mempool.Pool, q *TxQueue, size int, udpSrc uint16) {
	for p.Running() {
		m := makeUDP(pool, size, udpSrc)
		if m == nil {
			p.Sleep(2 * sim.Microsecond)
			continue
		}
		if !q.SendOne(m) {
			m.Free()
			p.Sleep(2 * sim.Microsecond)
			continue
		}
		p.Sleep(0)
	}
}

func TestTxRxRoundTrip(t *testing.T) {
	eng, a, b := testPair(t, 1)
	pool := mempool.New(mempool.Config{Count: 64})
	q := a.GetTxQueue(0)
	eng.Schedule(0, func() {
		for i := 0; i < 10; i++ {
			if !q.SendOne(makeUDP(pool, 60, uint16(1000+i))) {
				t.Error("send failed")
			}
		}
	})
	eng.RunAll()
	if got := b.CounterSnapshot().RxPackets; got != 10 {
		t.Fatalf("rx packets = %d", got)
	}
	if got := a.CounterSnapshot().TxPackets; got != 10 {
		t.Fatalf("tx packets = %d", got)
	}
	// All packets landed in b's queues with intact contents and in order.
	var seen []uint16
	for qi := 0; qi < len(b.rxQueues); qi++ {
		rxq := b.GetRxQueue(qi)
		for {
			m, ok := recvOne(rxq)
			if !ok {
				break
			}
			p := proto.UDPPacket{B: m.Payload()}
			if p.IP().Src() != proto.MustIPv4("10.0.0.1") {
				t.Fatal("payload corrupted")
			}
			seen = append(seen, p.UDP().SrcPort())
			rxq.Release()
		}
	}
	if len(seen) != 10 {
		t.Fatalf("received %d packets from queues", len(seen))
	}
}

func TestBufferRecycling(t *testing.T) {
	eng, a, _ := testPair(t, 2)
	pool := mempool.New(mempool.Config{Count: 16})
	q := a.GetTxQueue(0)
	eng.Schedule(0, func() {
		for i := 0; i < 16; i++ {
			q.SendOne(makeUDP(pool, 60, 1))
		}
	})
	eng.RunAll()
	if avail := pool.Available(); avail != 16 {
		t.Fatalf("pool has %d free buffers after transmit, want 16", avail)
	}
}

func TestLineRate(t *testing.T) {
	eng, a, b := testPair(t, 3)
	pool := mempool.New(mempool.Config{Count: 4096})
	q := a.GetTxQueue(0)
	const runFor = 10 * sim.Millisecond
	eng.SetStopTime(sim.Time(runFor))
	eng.Spawn("tx", func(p *sim.Proc) {
		batch := make([]*mempool.Mbuf, 32)
		for p.Running() {
			n := pool.AllocBatch(batch, 60)
			for i := 0; i < n; i++ {
				pk := proto.UDPPacket{B: batch[i].Payload()}
				pk.Fill(proto.UDPPacketFill{PktLength: 60, UDPSrc: 7, UDPDst: 42,
					IPSrc: proto.MustIPv4("10.0.0.1"), IPDst: proto.MustIPv4("10.0.0.2")})
			}
			sent := 0
			for sent < n {
				k := q.Send(batch[sent:n])
				sent += k
				if k == 0 {
					p.Sleep(sim.Microsecond)
				}
			}
			if n == 0 {
				p.Sleep(sim.Microsecond)
				continue
			}
			p.Sleep(0)
		}
	})
	eng.Spawn("rxdrain", func(p *sim.Proc) {
		out := make([]*mempool.Mbuf, 64)
		for p.Running() || pending(b.GetRxQueue(0)) > 0 {
			n := b.GetRxQueue(0).RecvBurst(out)
			b.GetRxQueue(1).RecvBurst(out[n:])
			b.GetRxQueue(0).Release()
			b.GetRxQueue(1).Release()
			p.Sleep(2 * sim.Microsecond)
		}
	})
	var txAtStop uint64
	eng.Schedule(sim.Time(runFor), func() { txAtStop = a.CounterSnapshot().TxPackets })
	eng.RunAll()
	pps := float64(txAtStop) / sim.Duration(runFor).Seconds()
	if math.Abs(pps-14.88e6) > 0.05e6 {
		t.Fatalf("unshaped rate = %.3f Mpps, want ~14.88", pps/1e6)
	}
}

func TestHWRateControlAccuracy(t *testing.T) {
	eng, a, b := testPair(t, 4)
	pool := mempool.New(mempool.Config{Count: 4096})
	q := a.GetTxQueue(0)
	const target = 1e6 // 1 Mpps
	var arrivals []sim.Time
	b.SetDeliverHook(func(f *wire.Frame, at sim.Time) bool {
		arrivals = append(arrivals, at)
		return true
	})
	eng.Schedule(0, func() { q.SetRatePPS(target) })
	eng.SetStopTime(sim.Time(20 * sim.Millisecond))
	eng.Spawn("tx", func(p *sim.Proc) { pumpQueue(p, pool, q, 60, 1) })
	eng.RunAll()
	b.PullRx()
	if len(arrivals) < 1000 {
		t.Fatalf("only %d arrivals", len(arrivals))
	}
	// Long-term rate accuracy: within 0.5% of target.
	span := arrivals[len(arrivals)-1].Sub(arrivals[0]).Seconds()
	rate := float64(len(arrivals)-1) / span
	if math.Abs(rate-target)/target > 0.005 {
		t.Fatalf("achieved rate %.0f pps, want %.0f", rate, target)
	}
	// Per-gap deviation bounded by the documented ±512 ns plus PHY jitter.
	ideal := sim.FromSeconds(1 / target)
	for i := 1; i < len(arrivals); i++ {
		dev := arrivals[i].Sub(arrivals[i-1]) - ideal
		if dev < 0 {
			dev = -dev
		}
		if dev > 2*512*sim.Nanosecond {
			t.Fatalf("gap %d deviates %v", i, dev)
		}
	}
}

// TestHWRateAnomaly reproduces §7.5: above ~9 Mpps a single queue's
// shaper misbehaves; splitting across two queues works around it.
func TestHWRateAnomaly(t *testing.T) {
	run := func(seed int64, queues int, totalPPS float64) float64 {
		eng := sim.NewEngine(seed)
		a := NewPort(eng, PortConfig{Profile: ChipX540, ID: 0, TxQueues: queues})
		b := NewPort(eng, PortConfig{Profile: ChipX540, ID: 1})
		ConnectDuplex(eng, a, b, wire.PHY10GBaseT, 2)
		pool := mempool.New(mempool.Config{Count: 4096})
		count := 0
		b.SetDeliverHook(func(f *wire.Frame, at sim.Time) bool { count++; return true })
		const runFor = 5 * sim.Millisecond
		eng.SetStopTime(sim.Time(runFor))
		for qi := 0; qi < queues; qi++ {
			q := a.GetTxQueue(qi)
			eng.Schedule(0, func() { q.SetRatePPS(totalPPS / float64(queues)) })
			eng.Spawn("tx", func(p *sim.Proc) { pumpQueue(p, pool, q, 60, 1) })
		}
		atStop := 0
		eng.Schedule(sim.Time(runFor), func() { b.PullRx(); atStop = count })
		eng.RunAll()
		return float64(atStop) / sim.Duration(runFor).Seconds()
	}
	// 10 Mpps on one queue: nonlinear shortfall.
	single := run(5, 1, 10e6)
	if dev := math.Abs(single-10e6) / 10e6; dev < 0.03 {
		t.Fatalf("single queue at 10 Mpps achieved %.2f Mpps (dev %.1f%%), expected anomaly", single/1e6, dev*100)
	}
	// Two queues at 5 Mpps each: accurate. At 200 ns target intervals
	// the shaper's oscillation (up to ~±350 ns) clamps against the
	// previous departure, so a percent-level shortfall is physical;
	// the anomaly above shows a much larger, nonlinear error.
	double := run(6, 2, 10e6)
	if dev := math.Abs(double-10e6) / 10e6; dev > 0.02 {
		t.Fatalf("two queues at 5 Mpps achieved %.2f Mpps (dev %.1f%%)", double/1e6, dev*100)
	}
}

// TestBadCRCDroppedEarly verifies the §8 foundation: frames with an
// invalid FCS never reach a receive queue; only the error counter moves.
func TestBadCRCDroppedEarly(t *testing.T) {
	eng, a, b := testPair(t, 7)
	pool := mempool.New(mempool.Config{Count: 64})
	q := a.GetTxQueue(0)
	eng.Schedule(0, func() {
		good := makeUDP(pool, 60, 1)
		bad := makeUDP(pool, 60, 2)
		bad.TxMeta.InvalidCRC = true
		q.SendOne(bad)
		q.SendOne(good)
	})
	eng.RunAll()
	st := b.CounterSnapshot()
	if st.RxCRCErrors != 1 {
		t.Fatalf("crc errors = %d, want 1", st.RxCRCErrors)
	}
	if st.RxPackets != 1 {
		t.Fatalf("rx packets = %d, want 1", st.RxPackets)
	}
	total := 0
	for i := 0; i < len(b.rxQueues); i++ {
		total += pending(b.GetRxQueue(i))
	}
	if total != 1 {
		t.Fatalf("%d packets in rx queues, want 1", total)
	}
}

// TestRuntFramesDroppedAsErrors: sub-64B wire frames also hit the error
// counter (illegal length), used by the CRC-gap method for short gaps.
func TestRuntFramesDropped(t *testing.T) {
	eng, a, b := testPair(t, 8)
	pool := mempool.New(mempool.Config{Count: 64})
	q := a.GetTxQueue(0)
	eng.Schedule(0, func() {
		runt := pool.Alloc(40) // 44 with FCS: < 64 minimum
		proto.EthHdr(runt.Payload()).Fill(proto.EthFill{EtherType: proto.EtherTypeIPv4})
		runt.TxMeta.InvalidCRC = true
		q.SendOne(runt)
	})
	eng.RunAll()
	if st := b.CounterSnapshot(); st.RxCRCErrors != 1 || st.RxPackets != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTimestampLatchSemantics(t *testing.T) {
	eng, a, b := testPair(t, 9)
	b.EnableTimestamps(0)
	a.EnableTimestamps(0)
	pool := mempool.New(mempool.Config{Count: 64})
	q := a.GetTxQueue(0)
	mkPTP := func(seq uint16) *mempool.Mbuf {
		m := pool.Alloc(60)
		p := proto.PTPPacket{B: m.Payload()}
		p.Fill(proto.PTPPacketFill{PktLength: 60, MessageType: proto.PTPMsgSync, SequenceID: seq})
		m.TxMeta.Timestamp = true
		return m
	}
	eng.Schedule(0, func() {
		q.SendOne(mkPTP(1))
		q.SendOne(mkPTP(2)) // latch still occupied: no TX timestamp
	})
	eng.RunAll()
	ts1, seq, ok := a.ReadTxTimestamp()
	if !ok || seq != 1 {
		t.Fatalf("tx timestamp: ok=%v seq=%d", ok, seq)
	}
	if _, _, ok := a.ReadTxTimestamp(); ok {
		t.Fatal("second read should find latch empty")
	}
	rts, rseq, ok := b.ReadRxTimestamp()
	if !ok || rseq != 1 {
		t.Fatalf("rx timestamp: ok=%v seq=%d", ok, rseq)
	}
	if rts <= ts1 {
		t.Fatalf("rx ts %v <= tx ts %v", rts, ts1)
	}
	// Latency = k + l/vp (~2156.8 ns for 2 m copper) ± quantization+jitter.
	lat := rts.Sub(ts1).Nanoseconds()
	if math.Abs(lat-2156.8) > 40 {
		t.Fatalf("measured latency %.1f ns, want ~2156.8", lat)
	}
}

// TestUDPPTPMinSize: UDP PTP packets below 80 B are not timestamped;
// layer-2 PTP packets of any size are (§6.4).
func TestUDPPTPMinSize(t *testing.T) {
	eng, a, b := testPair(t, 10)
	b.EnableTimestamps(0)
	pool := mempool.New(mempool.Config{Count: 64})
	q := a.GetTxQueue(0)
	mkUDPPTP := func(size int, seq uint16) *mempool.Mbuf {
		m := pool.Alloc(size)
		p := proto.UDPPTPPacket{B: m.Payload()}
		p.Fill(proto.UDPPTPPacketFill{
			PktLength: size, MessageType: proto.PTPMsgSync, SequenceID: seq,
			IPSrc: proto.MustIPv4("10.0.0.1"), IPDst: proto.MustIPv4("10.0.0.2"),
		})
		return m
	}
	eng.Schedule(0, func() {
		q.SendOne(mkUDPPTP(70, 1)) // 74 B with FCS: too small
	})
	eng.RunAll()
	if _, _, ok := b.ReadRxTimestamp(); ok {
		t.Fatal("undersized UDP PTP packet was timestamped")
	}
	eng.Schedule(eng.Now(), func() {
		q.SendOne(mkUDPPTP(80, 2)) // 84 B with FCS: large enough
	})
	eng.RunAll()
	if _, seq, ok := b.ReadRxTimestamp(); !ok || seq != 2 {
		t.Fatalf("80B UDP PTP packet not timestamped (ok=%v seq=%d)", ok, seq)
	}
}

// TestFillerNotTimestamped: packets with a non-event PTP type pass the
// DuT untouched but are not timestamped — how MoonGen crafts load
// packets indistinguishable from probe packets (§6.4).
func TestFillerNotTimestamped(t *testing.T) {
	eng, a, b := testPair(t, 11)
	b.EnableTimestamps(0)
	pool := mempool.New(mempool.Config{Count: 64})
	q := a.GetTxQueue(0)
	eng.Schedule(0, func() {
		m := pool.Alloc(60)
		p := proto.PTPPacket{B: m.Payload()}
		p.Fill(proto.PTPPacketFill{PktLength: 60, MessageType: proto.PTPMsgNoTimestamp, SequenceID: 9})
		q.SendOne(m)
	})
	eng.RunAll()
	if _, _, ok := b.ReadRxTimestamp(); ok {
		t.Fatal("filler packet was timestamped")
	}
	if b.CounterSnapshot().RxPackets != 1 {
		t.Fatal("filler packet was not delivered")
	}
}

func TestChecksumOffloadMatchesSoftware(t *testing.T) {
	eng, a, b := testPair(t, 12)
	pool := mempool.New(mempool.Config{Count: 64})
	q := a.GetTxQueue(0)
	eng.Schedule(0, func() {
		m := makeUDP(pool, 124, 5555)
		m.TxMeta.OffloadIPChecksum = true
		m.TxMeta.OffloadUDPChecksum = true
		q.SendOne(m)
	})
	eng.RunAll()
	m, ok := recvOne(b.GetRxQueue(len(b.rxQueues) - 1))
	if !ok {
		for i := 0; i < len(b.rxQueues); i++ {
			if mm, ok2 := recvOne(b.GetRxQueue(i)); ok2 {
				m = mm
				ok = true
				break
			}
		}
	}
	if !ok {
		t.Fatal("no packet received")
	}
	p := proto.UDPPacket{B: m.Payload()}
	if !p.VerifyChecksums() {
		t.Fatal("offloaded checksums invalid")
	}
	// Cross-check against a software-computed copy.
	ref := make([]byte, m.Len)
	copy(ref, m.Payload())
	rp := proto.UDPPacket{B: ref}
	rp.CalcChecksums()
	if !bytes.Equal(ref, m.Payload()) {
		t.Fatal("offload result differs from software computation")
	}
}

func TestRSSSteering(t *testing.T) {
	eng, a, b := testPair(t, 13)
	pool := mempool.New(mempool.Config{Count: 512})
	q := a.GetTxQueue(0)
	eng.Schedule(0, func() {
		for i := 0; i < 200; i++ {
			q.SendOne(makeUDP(pool, 60, uint16(i)))
		}
	})
	eng.RunAll()
	q0, q1 := rxCount(b.GetRxQueue(0)), rxCount(b.GetRxQueue(1))
	if q0+q1 != 200 {
		t.Fatalf("steered %d+%d packets", q0, q1)
	}
	if q0 == 0 || q1 == 0 {
		t.Fatalf("RSS did not distribute: %d/%d", q0, q1)
	}
	// Same flow always lands on the same queue.
	eng.Schedule(eng.Now(), func() {
		for i := 0; i < 50; i++ {
			q.SendOne(makeUDP(pool, 60, 7777))
		}
	})
	eng.RunAll()
	n0, n1 := rxCount(b.GetRxQueue(0)), rxCount(b.GetRxQueue(1))
	if n0 != 0 && n1 != 0 {
		t.Fatalf("one flow split across queues: %d/%d", n0, n1)
	}
}

func TestRxMissedWhenRingFull(t *testing.T) {
	eng := sim.NewEngine(14)
	a := NewPort(eng, PortConfig{Profile: ChipX540, ID: 0})
	b := NewPort(eng, PortConfig{Profile: ChipX540, ID: 1, RxRingSize: 4})
	ConnectDuplex(eng, a, b, wire.PHY10GBaseT, 2)
	pool := mempool.New(mempool.Config{Count: 64})
	q := a.GetTxQueue(0)
	eng.Schedule(0, func() {
		for i := 0; i < 10; i++ {
			q.SendOne(makeUDP(pool, 60, 1))
		}
	})
	eng.RunAll()
	st := b.CounterSnapshot()
	if st.RxMissed != 6 {
		t.Fatalf("missed = %d, want 6 (ring of 4)", st.RxMissed)
	}

	// A ring size that is not a power of two rounds up: 5 gives 8
	// descriptors, so 2 of 10 back-to-back frames are missed.
	eng = sim.NewEngine(14)
	a = NewPort(eng, PortConfig{Profile: ChipX540, ID: 0})
	b = NewPort(eng, PortConfig{Profile: ChipX540, ID: 1, RxRingSize: 5})
	ConnectDuplex(eng, a, b, wire.PHY10GBaseT, 2)
	q = a.GetTxQueue(0)
	eng.Schedule(0, func() {
		for i := 0; i < 10; i++ {
			q.SendOne(makeUDP(pool, 60, 1))
		}
	})
	eng.RunAll()
	if st := b.CounterSnapshot(); st.RxMissed != 2 {
		t.Fatalf("missed = %d, want 2 (ring of 5 rounds to 8)", st.RxMissed)
	}
}

// TestTxRingRoundsUpToPow2: a descriptor ring size rounds up to the
// next power of two, as rte_ring sizes do.
func TestTxRingRoundsUpToPow2(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewPort(eng, PortConfig{Profile: ChipX540, TxRingSize: 5})
	if got := p.GetTxQueue(0).Free(); got != 8 {
		t.Fatalf("Free() = %d, want 8 (ring of 5 rounds to 8)", got)
	}
}

// TestSendShortCountOnFullRing: Send onto a ring with less room than
// the burst accepts the prefix that fits and returns its length
// (rte_ring_enqueue_burst); only that prefix goes out, in order.
func TestSendShortCountOnFullRing(t *testing.T) {
	eng := sim.NewEngine(3)
	a := NewPort(eng, PortConfig{Profile: ChipX540, ID: 0, TxRingSize: 8})
	b := NewPort(eng, PortConfig{Profile: ChipX540, ID: 1})
	ConnectDuplex(eng, a, b, wire.PHY10GBaseT, 2)
	pool := mempool.New(mempool.Config{Count: 64})
	q := a.GetTxQueue(0)
	bufs := make([]*mempool.Mbuf, 10)
	for i := range bufs {
		bufs[i] = makeUDP(pool, 60, uint16(1000+i))
	}
	eng.Schedule(0, func() {
		if n := q.Send(bufs[:3]); n != 3 {
			t.Errorf("Send(3) on an empty ring = %d, want 3", n)
		}
		if n := q.Send(bufs[3:]); n != 5 {
			t.Errorf("Send(7) with 5 free = %d, want 5", n)
		}
		if q.Free() != 0 {
			t.Errorf("Free() = %d after filling the ring", q.Free())
		}
		if n := q.Send(bufs[8:]); n != 0 {
			t.Errorf("Send onto a full ring = %d, want 0", n)
		}
	})
	eng.RunAll()
	for _, m := range bufs[8:] {
		m.Free()
	}
	if got := a.CounterSnapshot().TxPackets; got != 8 {
		t.Fatalf("tx packets = %d, want 8", got)
	}
	for i := 0; i < 8; i++ {
		m, ok := recvOne(b.GetRxQueue(0))
		if !ok {
			t.Fatalf("received %d frames, want 8", i)
		}
		if got := (proto.UDPPacket{B: m.Payload()}).UDP().SrcPort(); got != uint16(1000+i) {
			t.Fatalf("frame %d has source port %d, want %d", i, got, 1000+i)
		}
		b.GetRxQueue(0).Release()
	}
	if _, ok := recvOne(b.GetRxQueue(0)); ok {
		t.Fatal("a refused buffer went out")
	}
}

// Test82580TimestampAllRx: the GbE chip timestamps every received
// packet with 64 ns granularity and a constant sub-tick phase.
func Test82580TimestampAllRx(t *testing.T) {
	eng := sim.NewEngine(15)
	a := NewPort(eng, PortConfig{Profile: Chip82580, ID: 0})
	b := NewPort(eng, PortConfig{Profile: Chip82580, ID: 1})
	ConnectDuplex(eng, a, b, wire.PHY1GBaseT, 2)
	pool := mempool.New(mempool.Config{Count: 64})
	q := a.GetTxQueue(0)
	eng.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			q.SendOne(makeUDP(pool, 60, 1))
			p.Sleep(10 * sim.Microsecond)
		}
	})
	eng.RunAll()
	var stamps []int64
	for {
		m, ok := recvOne(b.GetRxQueue(0))
		if !ok {
			break
		}
		if !m.RxMeta.HasTimestamp {
			t.Fatal("packet without hardware timestamp")
		}
		stamps = append(stamps, m.RxMeta.Timestamp)
		b.GetRxQueue(0).Release()
	}
	if len(stamps) != 20 {
		t.Fatalf("got %d stamps", len(stamps))
	}
	tick := int64(64 * sim.Nanosecond)
	phase := ((stamps[0] % tick) + tick) % tick
	step := int64(8 * sim.Nanosecond)
	if phase%step != 0 {
		t.Fatalf("phase %d ps not a multiple of 8 ns", phase)
	}
	for _, s := range stamps[1:] {
		if p := ((s % tick) + tick) % tick; p != phase {
			t.Fatalf("phase changed mid-run: %d vs %d", p, phase)
		}
	}
}

// TestXL710PortCap: the 40 GbE chip cannot exceed ~30 Mpps per port
// regardless of offered load (§5.4).
func TestXL710PortCap(t *testing.T) {
	eng := sim.NewEngine(16)
	a := NewPort(eng, PortConfig{Profile: ChipXL710, ID: 0})
	b := NewPort(eng, PortConfig{Profile: ChipXL710, ID: 1, RxRingSize: 4096, RxPoolSize: 8192})
	ConnectDuplex(eng, a, b, wire.PHY10GBaseSR, 2)
	pool := mempool.New(mempool.Config{Count: 4096})
	q := a.GetTxQueue(0)
	count := 0
	b.SetDeliverHook(func(f *wire.Frame, at sim.Time) bool { count++; return true })
	const runFor = 2 * sim.Millisecond
	eng.SetStopTime(sim.Time(runFor))
	eng.Spawn("tx", func(p *sim.Proc) { pumpQueue(p, pool, q, 60, 1) })
	eng.RunAll()
	b.PullRx()
	pps := float64(count) / sim.Duration(runFor).Seconds()
	if pps > 30.5e6 {
		t.Fatalf("XL710 emitted %.1f Mpps, cap is 30", pps/1e6)
	}
	if pps < 29e6 {
		t.Fatalf("XL710 emitted %.1f Mpps, should be near the 30 Mpps cap", pps/1e6)
	}
}

func TestQueueIndependence(t *testing.T) {
	// Two queues at different rates on one port: both achieve their
	// target, sharing the wire (§5.3's architectural assumption).
	eng, a, b := testPair(t, 17)
	pool := mempool.New(mempool.Config{Count: 4096})
	q0, q1 := a.GetTxQueue(0), a.GetTxQueue(1)
	counts := map[uint16]int{}
	b.SetDeliverHook(func(f *wire.Frame, at sim.Time) bool {
		counts[proto.UDPPacket{B: f.Data}.UDP().SrcPort()]++
		return true
	})
	eng.Schedule(0, func() {
		q0.SetRatePPS(500e3)
		q1.SetRatePPS(250e3)
	})
	const runFor = 20 * sim.Millisecond
	eng.SetStopTime(sim.Time(runFor))
	for i, q := range []*TxQueue{q0, q1} {
		port := uint16(100 + i)
		q := q
		eng.Spawn("tx", func(p *sim.Proc) { pumpQueue(p, pool, q, 60, port) })
	}
	var c0, c1 int
	eng.Schedule(sim.Time(runFor), func() { b.PullRx(); c0, c1 = counts[100], counts[101] })
	eng.RunAll()
	r0 := float64(c0) / sim.Duration(runFor).Seconds()
	r1 := float64(c1) / sim.Duration(runFor).Seconds()
	if math.Abs(r0-500e3)/500e3 > 0.01 || math.Abs(r1-250e3)/250e3 > 0.01 {
		t.Fatalf("rates = %.0f / %.0f, want 500k / 250k", r0, r1)
	}
}

func TestProfileFIFOTime(t *testing.T) {
	// "the smallest buffer on the X540 chip is the 160 kB transmit
	// buffer, which can store 128 µs of data at 10 GbE" (§3.2).
	// 160 kB × 8 bit / 10 Gbit/s = 131.072 µs.
	ft := float64(ChipX540.TxFIFOBytes) * 8 / float64(ChipX540.Speed) * 1e6
	if math.Abs(ft-131.072) > 0.01 {
		t.Fatalf("X540 FIFO time = %f µs", ft)
	}
}

func TestTooManyQueuesPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewPort(eng, PortConfig{Profile: ChipX540, TxQueues: 129})
}
