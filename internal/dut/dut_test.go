package dut

import (
	"math"
	"testing"

	"repro/internal/mempool"
	"repro/internal/nic"
	"repro/internal/proto"
	"repro/internal/rate"
	"repro/internal/sim"
	"repro/internal/wire"
)

// testbed wires loadgen -> dut(in, out) -> sink and returns the pieces.
type testbed struct {
	eng     *sim.Engine
	gen     *nic.Port // load generator TX port
	dutIn   *nic.Port
	dutOut  *nic.Port
	sink    *nic.Port
	fwd     *Forwarder
	arrived []sim.Time // frame arrivals at the sink
}

func newTestbed(seed int64, cfg Config) *testbed {
	eng := sim.NewEngine(seed)
	tb := &testbed{eng: eng}
	tb.gen = nic.NewPort(eng, nic.PortConfig{Profile: nic.ChipX540, ID: 0})
	tb.dutIn = nic.NewPort(eng, nic.PortConfig{Profile: nic.ChipX540, ID: 1})
	tb.dutOut = nic.NewPort(eng, nic.PortConfig{Profile: nic.ChipX540, ID: 2})
	tb.sink = nic.NewPort(eng, nic.PortConfig{Profile: nic.ChipX540, ID: 3})
	nic.ConnectDuplex(eng, tb.gen, tb.dutIn, wire.PHY10GBaseT, 2)
	nic.ConnectDuplex(eng, tb.dutOut, tb.sink, wire.PHY10GBaseT, 2)
	tb.fwd = New(eng, tb.dutIn, tb.dutOut, cfg)
	tb.sink.SetDeliverHook(func(f *wire.Frame, at sim.Time) bool {
		tb.arrived = append(tb.arrived, at)
		return true
	})
	return tb
}

// offerCBR drives the generator with hardware-rate-controlled CBR.
func (tb *testbed) offerCBR(pps float64, runFor sim.Duration) {
	pool := mempool.New(mempool.Config{Count: 8192})
	q := tb.gen.GetTxQueue(0)
	tb.eng.Schedule(0, func() { q.SetRatePPS(pps) })
	tb.eng.SetStopTime(sim.Time(runFor))
	tb.eng.Spawn("tx", func(p *sim.Proc) {
		for p.Running() {
			m := pool.Alloc(60)
			if m == nil {
				p.Sleep(2 * sim.Microsecond)
				continue
			}
			pk := proto.UDPPacket{B: m.Payload()}
			pk.Fill(proto.UDPPacketFill{PktLength: 60,
				IPSrc: proto.MustIPv4("10.0.0.1"), IPDst: proto.MustIPv4("10.1.0.1"),
				UDPSrc: 1000, UDPDst: 2000})
			if !q.SendOne(m) {
				m.Free()
				p.Sleep(2 * sim.Microsecond)
				continue
			}
			p.Sleep(0)
		}
	})
}

func TestForwardingBasic(t *testing.T) {
	tb := newTestbed(1, DefaultConfig())
	tb.offerCBR(100e3, 5*sim.Millisecond)
	tb.eng.RunAll()
	tb.sink.PullRx()
	if tb.fwd.Forwarded < 450 || tb.fwd.Dropped > 0 {
		t.Fatalf("forwarded=%d dropped=%d", tb.fwd.Forwarded, tb.fwd.Dropped)
	}
	if len(tb.arrived) == 0 {
		t.Fatal("nothing reached the sink")
	}
	// Below saturation, output rate equals input rate.
	if diff := math.Abs(float64(len(tb.arrived)) - float64(tb.fwd.Forwarded)); diff > 2 {
		t.Fatalf("sink saw %d, forwarder sent %d", len(tb.arrived), tb.fwd.Forwarded)
	}
}

func TestThroughputCapsAtSaturation(t *testing.T) {
	cfg := DefaultConfig()
	tb := newTestbed(2, cfg)
	const runFor = 20 * sim.Millisecond
	tb.offerCBR(3e6, runFor) // well beyond the ~1.96 Mpps service limit
	tb.eng.RunAll()
	rate := float64(tb.fwd.Forwarded) / sim.Duration(runFor).Seconds()
	sat := 1 / cfg.ServiceTime.Seconds()
	if math.Abs(rate-sat)/sat > 0.1 {
		t.Fatalf("overloaded throughput = %.2f Mpps, want ~%.2f", rate/1e6, sat/1e6)
	}
	if tb.fwd.Dropped == 0 {
		t.Fatal("no drops at overload")
	}
}

// TestOverloadLatency reproduces §8.3's "about 2 ms" buffer-full
// latency at overload.
func TestOverloadLatency(t *testing.T) {
	tb := newTestbed(3, DefaultConfig())
	tb.offerCBR(2.5e6, 30*sim.Millisecond)
	tb.eng.RunAll()
	lat := tb.fwd.MeanInternalLatency()
	if lat < 1500*sim.Microsecond || lat > 2500*sim.Microsecond {
		t.Fatalf("overload latency = %v, want ~2ms", lat)
	}
}

func TestLowLoadLatency(t *testing.T) {
	tb := newTestbed(4, DefaultConfig())
	tb.offerCBR(50e3, 10*sim.Millisecond)
	tb.eng.RunAll()
	lat := tb.fwd.MeanInternalLatency()
	// Interrupt-driven path: a handful of µs, far from saturation.
	if lat < 4*sim.Microsecond || lat > 50*sim.Microsecond {
		t.Fatalf("low-load latency = %v", lat)
	}
}

// TestInterruptModerationUnderBursts reproduces Figure 7's core
// observation: at the same offered load, bursty traffic generates a
// much lower interrupt rate than CBR because the moderation logic sees
// large batches.
func TestInterruptModerationUnderBursts(t *testing.T) {
	const pps = 500e3
	const runFor = 40 * sim.Millisecond

	intRate := func(seed int64, pat rate.Pattern) float64 {
		tb := newTestbed(seed, DefaultConfig())
		pool := mempool.New(mempool.Config{Count: 8192})
		q := tb.gen.GetTxQueue(0)
		tb.eng.SetStopTime(sim.Time(runFor))
		tb.eng.Spawn("tx", func(p *sim.Proc) {
			next := p.Now()
			for p.Running() {
				m := pool.Alloc(60)
				if m == nil {
					p.Sleep(sim.Microsecond)
					continue
				}
				pk := proto.UDPPacket{B: m.Payload()}
				pk.Fill(proto.UDPPacketFill{PktLength: 60,
					IPSrc: proto.MustIPv4("10.0.0.1"), IPDst: proto.MustIPv4("10.1.0.1")})
				q.SendOne(m)
				next = next.Add(pat.NextGap(tb.eng.Rand()))
				p.SleepUntil(next)
			}
		})
		tb.eng.RunAll()
		return float64(tb.fwd.Interrupts) / sim.Duration(runFor).Seconds()
	}

	b2b := wire.FrameTime(wire.Speed10G, 64)
	cbr := intRate(10, rate.NewCBRPPS(pps))
	bursty := intRate(11, rate.NewBurstyPPS(pps, b2b))
	if cbr < 2*bursty {
		t.Fatalf("CBR int rate %.0f not >> bursty %.0f", cbr, bursty)
	}
	if cbr < 30e3 {
		t.Fatalf("CBR interrupt rate %.0f unexpectedly low", cbr)
	}
}

// TestInterruptRateCollapsesAtHighLoad: once the DuT stays in polling
// mode the interrupt rate falls (the descending branch in Figure 7).
func TestInterruptRateCollapsesAtHighLoad(t *testing.T) {
	rateAt := func(seed int64, pps float64) float64 {
		tb := newTestbed(seed, DefaultConfig())
		const runFor = 20 * sim.Millisecond
		tb.offerCBR(pps, runFor)
		tb.eng.RunAll()
		return float64(tb.fwd.Interrupts) / sim.Duration(runFor).Seconds()
	}
	mid := rateAt(20, 1.0e6)
	high := rateAt(21, 1.95e6)
	if high > mid/2 {
		t.Fatalf("interrupt rate did not collapse: mid=%.0f high=%.0f", mid, high)
	}
}

// TestInvalidFramesCauseNoActivity verifies §8.2: a CRC-gap stream's
// invalid frames produce no interrupts, no forwarding work, nothing —
// only the NIC error counter moves.
func TestInvalidFramesCauseNoActivity(t *testing.T) {
	tb := newTestbed(30, DefaultConfig())
	pool := mempool.New(mempool.Config{Count: 256})
	q := tb.gen.GetTxQueue(0)
	tb.eng.Schedule(0, func() {
		for i := 0; i < 100; i++ {
			m := pool.Alloc(60)
			pk := proto.UDPPacket{B: m.Payload()}
			pk.Fill(proto.UDPPacketFill{PktLength: 60,
				IPSrc: proto.MustIPv4("10.0.0.1"), IPDst: proto.MustIPv4("10.1.0.1")})
			m.TxMeta.InvalidCRC = true
			q.SendOne(m)
		}
	})
	tb.eng.RunAll()
	if tb.fwd.Interrupts != 0 || tb.fwd.Forwarded != 0 {
		t.Fatalf("invalid frames caused activity: ints=%d fwd=%d",
			tb.fwd.Interrupts, tb.fwd.Forwarded)
	}
	if tb.dutIn.CounterSnapshot().RxCRCErrors != 100 {
		t.Fatalf("crc errors = %d", tb.dutIn.CounterSnapshot().RxCRCErrors)
	}
}

func TestBacklogBounded(t *testing.T) {
	cfg := DefaultConfig()
	tb := newTestbed(31, cfg)
	tb.offerCBR(5e6, 20*sim.Millisecond)
	maxSeen := 0
	tb.eng.Spawn("probe", func(p *sim.Proc) {
		for p.Running() {
			if b := tb.fwd.Backlog(); b > maxSeen {
				maxSeen = b
			}
			p.Sleep(100 * sim.Microsecond)
		}
	})
	tb.eng.RunAll()
	if maxSeen > cfg.BacklogLimit {
		t.Fatalf("backlog %d exceeded limit %d", maxSeen, cfg.BacklogLimit)
	}
	if maxSeen < cfg.BacklogLimit/2 {
		t.Fatalf("backlog never filled under overload: %d", maxSeen)
	}
}

// TestSaturationPPS pins the default service time to the paper's
// overload point (§8.3): 1/ServiceTime just below 2 Mpps.
func TestSaturationPPS(t *testing.T) {
	sat := 1 / DefaultConfig().ServiceTime.Seconds()
	if sat < 1.9e6 || sat > 2.0e6 {
		t.Fatalf("saturation = %.2f Mpps, want just below 2", sat/1e6)
	}
}

// TestRestartFlushReleasesFrames: a flushing Restart hands every
// discarded backlog frame back to the link it arrived on, so the
// generator's next frames reuse them instead of allocating.
func TestRestartFlushReleasesFrames(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BacklogLimit = 512 // below the link's free-list bound
	tb := newTestbed(1, cfg)
	tb.fwd.Stall()
	tb.offerCBR(1e6, 100*sim.Microsecond)
	tb.eng.RunAll()
	n := tb.fwd.Backlog()
	if n == 0 {
		t.Fatal("the stalled forwarder queued nothing")
	}
	flushed := map[*wire.Frame]bool{}
	for range n {
		q, _ := tb.fwd.backlog.Pop()
		flushed[q.fr] = true
		tb.fwd.backlog.Push(q)
	}

	tb.fwd.Restart(true)
	if tb.fwd.Flushed != uint64(n) || tb.fwd.Backlog() != 0 {
		t.Fatalf("flushed %d with %d left, want %d and 0", tb.fwd.Flushed, tb.fwd.Backlog(), n)
	}
	// The free list is LIFO: the n frames released last come out first.
	link := tb.gen.Link()
	for range n {
		delete(flushed, link.AcquireFrame())
	}
	if len(flushed) != 0 {
		t.Fatalf("%d of %d flushed frames did not return to the link", len(flushed), n)
	}
}
