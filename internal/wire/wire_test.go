package wire

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/proto"
	"repro/internal/sim"
)

func TestByteTime(t *testing.T) {
	if bt := ByteTime(Speed10G); bt != 800*sim.Picosecond {
		t.Fatalf("10G byte time = %v", bt)
	}
	if bt := ByteTime(Speed1G); bt != 8*sim.Nanosecond {
		t.Fatalf("1G byte time = %v", bt)
	}
	if bt := ByteTime(Speed40G); bt != 200*sim.Picosecond {
		t.Fatalf("40G byte time = %v", bt)
	}
}

func TestLineRate(t *testing.T) {
	// The famous numbers: 14.88 Mpps at 10 GbE, 1.488 at 1 GbE.
	if pps := LineRatePPS(Speed10G, 64); math.Abs(pps-14880952.38) > 1 {
		t.Fatalf("10G line rate = %f", pps)
	}
	if ft := FrameTime(Speed10G, 64); ft != sim.FromNanoseconds(67.2) {
		t.Fatalf("64B frame time = %v", ft)
	}
	// 672 ns back-to-back at 1 GbE: the micro-burst marker in Fig 8.
	if ft := FrameTime(Speed1G, 64); ft != 672*sim.Nanosecond {
		t.Fatalf("1G 64B frame time = %v", ft)
	}
}

func TestPathLatencyTable3(t *testing.T) {
	// Fiber, 2 m: 310.7 + 2/(0.72c) = ~320 ns (measured exactly 320).
	lat := PHY10GBaseSR.PathLatency(2).Nanoseconds()
	if math.Abs(lat-320) > 1 {
		t.Fatalf("fiber 2m latency = %f ns", lat)
	}
	// Copper 2 m: 2147.2 + 2/(0.69c) = ~2156.9 (measured 2156.8).
	lat = PHY10GBaseT.PathLatency(2).Nanoseconds()
	if math.Abs(lat-2156.8) > 1 {
		t.Fatalf("copper 2m latency = %f ns", lat)
	}
	// Copper 50 m: ~2388.9 ns; the paper measured 2387.2 and notes the
	// cable is probably slightly shorter than 50 m.
	lat = PHY10GBaseT.PathLatency(50).Nanoseconds()
	if math.Abs(lat-2388.9) > 2 {
		t.Fatalf("copper 50m latency = %f ns", lat)
	}
}

// refJitter draws one receive-timestamp jitter sample from the
// profile's distribution, written straight from the §6.1 description:
// LargeJitterPct of samples uniform over ±RangeNS/2, the rest uniform
// over ±SmallJitterNS, none without a block code. It is the reference
// the link's inlined per-frame draw is pinned against.
func refJitter(p PHYProfile, rng *rand.Rand) sim.Duration {
	if p.SmallJitterNS == 0 {
		return 0
	}
	if p.LargeJitterPct > 0 && rng.Float64() < p.LargeJitterPct {
		half := p.RangeNS / 2
		return sim.FromNanoseconds(rng.Float64()*p.RangeNS - half)
	}
	return sim.FromNanoseconds(rng.Float64()*2*p.SmallJitterNS - p.SmallJitterNS)
}

func TestFiberNoJitter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if j := refJitter(PHY10GBaseSR, rng); j != 0 {
			t.Fatalf("fiber jitter = %v", j)
		}
	}
}

// TestCopperJitterDistribution reproduces §6.1: >99.5% of 10GBASE-T
// timestamps within ±6.4 ns; min-max range up to 64 ns.
func TestCopperJitterDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 100000
	within := 0
	lo, hi := sim.Duration(math.MaxInt64), sim.Duration(math.MinInt64)
	for i := 0; i < n; i++ {
		j := refJitter(PHY10GBaseT, rng)
		if j >= -sim.FromNanoseconds(6.4) && j <= sim.FromNanoseconds(6.4) {
			within++
		}
		if j < lo {
			lo = j
		}
		if j > hi {
			hi = j
		}
	}
	frac := float64(within) / n
	if frac < 0.995 {
		t.Fatalf("only %f within ±6.4ns", frac)
	}
	if span := hi - lo; span > sim.FromNanoseconds(64.1) {
		t.Fatalf("jitter span = %v > 64ns", span)
	}
	if hi <= sim.FromNanoseconds(6.4) {
		t.Fatal("no large-jitter samples seen")
	}
}

type collectEndpoint struct {
	frames []*Frame
	times  []sim.Time
}

func (c *collectEndpoint) DeliverFrame(f *Frame, at sim.Time) {
	c.frames = append(c.frames, f)
	c.times = append(c.times, at)
}

func TestLinkTransmitDelivery(t *testing.T) {
	eng := sim.NewEngine(1)
	ep := &collectEndpoint{}
	l := NewLink(eng, Speed10G, PHY10GBaseSR, 2, ep)
	f := &Frame{Data: make([]byte, 60), WireSize: 64, CRCOK: true}
	var freeAt sim.Time
	eng.Schedule(0, func() { freeAt = l.Transmit(f) })
	eng.RunAll()
	if len(ep.frames) != 1 {
		t.Fatalf("delivered %d frames", len(ep.frames))
	}
	if freeAt != sim.Time(sim.FromNanoseconds(67.2)) {
		t.Fatalf("wire free at %v", freeAt)
	}
	// Delivery at path latency ~320 ns.
	if math.Abs(sim.Duration(ep.times[0]).Nanoseconds()-320) > 1 {
		t.Fatalf("delivered at %v", ep.times[0])
	}
}

func TestLinkBusyPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, Speed10G, PHY10GBaseSR, 2, &collectEndpoint{})
	eng.Schedule(0, func() {
		l.Transmit(&Frame{WireSize: 64, CRCOK: true})
		defer func() {
			if recover() == nil {
				t.Error("transmit on busy wire did not panic")
			}
		}()
		l.Transmit(&Frame{WireSize: 64, CRCOK: true})
	})
	eng.RunAll()
}

// TestWireOrderAndSpacingProperty: for any frame schedule, receive
// order equals send order and arrival spacing is at least the
// serialization time (on a jitter-free PHY).
func TestWireOrderAndSpacingProperty(t *testing.T) {
	f := func(sizes []uint8, gaps []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(gaps) < len(sizes) {
			gaps = append(gaps, make([]uint16, len(sizes)-len(gaps))...)
		}
		eng := sim.NewEngine(3)
		ep := &collectEndpoint{}
		l := NewLink(eng, Speed10G, PHY10GBaseSR, 10, ep)
		var sent []int
		eng.Spawn("tx", func(p *sim.Proc) {
			for i, sz := range sizes {
				size := 64 + int(sz)%1455
				sent = append(sent, size)
				p.SleepUntil(l.NextTxSlot())
				p.SleepUntil(l.NextTxSlot().Add(sim.Duration(gaps[i]) * sim.Picosecond))
				l.Transmit(&Frame{WireSize: size, CRCOK: true})
			}
		})
		eng.RunAll()
		if len(ep.frames) != len(sent) {
			return false
		}
		for i := 1; i < len(ep.frames); i++ {
			if ep.frames[i].SeqNo <= ep.frames[i-1].SeqNo {
				return false // reordered
			}
			minGap := sim.Duration(sent[i-1]+20) * ByteTime(Speed10G)
			if ep.times[i].Sub(ep.times[i-1]) < minGap {
				return false // arrived faster than serialization allows
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(4))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestUtilization(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, Speed10G, PHY10GBaseSR, 2, &collectEndpoint{})
	eng.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			p.SleepUntil(l.NextTxSlot())
			l.Transmit(&Frame{WireSize: 64, CRCOK: true})
		}
	})
	eng.RunAll()
	// Back-to-back transmission: the wire is busy (frame plus
	// preamble and IFG) for ~all of the run, up to the trailing
	// propagation time.
	busy := sim.Duration(l.TxBytes+uint64(l.TxFrames)*proto.WireOverhead) * l.byteTime
	if u := float64(busy) / float64(eng.Now()); u < 0.9 || u > 1.01 {
		t.Fatalf("utilization = %f", u)
	}
}

// TestBimodalQuantization demonstrates the Table 3 explanation: a true
// latency between two 12.8 ns grid points yields exactly two observed
// values when timestamps snap to the grid.
func TestBimodalQuantization(t *testing.T) {
	// True latency 350.1 ns (8.5 m fiber); grid 12.8 ns. With TX times
	// uniform over the grid phase, diff quantizes to 345.6 or 358.4.
	grid := 12.8
	trueLat := PHY10GBaseSR.PathLatency(8.5).Nanoseconds()
	vals := map[float64]int{}
	for i := 0; i < 10000; i++ {
		txPhase := float64(i) * 0.777 // irrational-ish coverage
		tx := math.Floor(txPhase/grid) * grid
		rx := math.Floor((txPhase+trueLat)/grid) * grid
		d := math.Round((rx-tx)*10) / 10
		vals[d]++
	}
	if len(vals) != 2 {
		t.Fatalf("observed %d distinct values: %v", len(vals), vals)
	}
	keys := make([]float64, 0, 2)
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Float64s(keys)
	if keys[0] != 345.6 || keys[1] != 358.4 {
		t.Fatalf("bimodal values = %v, want 345.6/358.4", keys)
	}
}

// slackEndpoint records each delivery with both the frame's rxTime
// argument and the engine instant the callback executed at.
type slackEndpoint struct {
	eng     *sim.Engine
	rxTimes []sim.Time
	evTimes []sim.Time
	seqs    []uint64
}

func (s *slackEndpoint) DeliverFrame(f *Frame, at sim.Time) {
	s.rxTimes = append(s.rxTimes, at)
	s.evTimes = append(s.evTimes, s.eng.Now())
	s.seqs = append(s.seqs, f.SeqNo)
}

// TestDeliverySlackInvariance pins the RX delivery-train contract: with
// SetDeliverySlack, every frame is delivered with exactly the same
// rxTime argument, in the same order, as with per-frame delivery — only
// the engine instant of the callback is deferred, by at most the slack.
func TestDeliverySlackInvariance(t *testing.T) {
	const frames = 500
	slack := 32 * FrameTime(Speed10G, 64)
	run := func(d sim.Duration) *slackEndpoint {
		eng := sim.NewEngine(7)
		ep := &slackEndpoint{eng: eng}
		l := NewLink(eng, Speed10G, PHY10GBaseT, 2, ep) // copper: jitter path
		l.SetDeliverySlack(d)
		eng.Spawn("tx", func(p *sim.Proc) {
			for i := 0; i < frames; i++ {
				p.SleepUntil(l.NextTxSlot())
				if i%7 == 0 { // occasional idle gap: FIFO drains between trains
					p.Sleep(FrameTime(Speed10G, 64) * 40)
				}
				l.Transmit(&Frame{Data: make([]byte, 60), WireSize: 64, CRCOK: true})
			}
		})
		eng.RunAll()
		return ep
	}
	ref, got := run(0), run(slack)
	if len(got.rxTimes) != frames || len(ref.rxTimes) != frames {
		t.Fatalf("delivered %d/%d frames, want %d", len(got.rxTimes), len(ref.rxTimes), frames)
	}
	coalesced := false
	for i := range ref.rxTimes {
		if got.rxTimes[i] != ref.rxTimes[i] || got.seqs[i] != ref.seqs[i] {
			t.Fatalf("frame %d: rxTime %v seq %d, want %v seq %d",
				i, got.rxTimes[i], got.seqs[i], ref.rxTimes[i], ref.seqs[i])
		}
		if got.evTimes[i] < got.rxTimes[i] || got.evTimes[i] > got.rxTimes[i].Add(slack) {
			t.Fatalf("frame %d delivered at engine instant %v, rxTime %v, slack %v",
				i, got.evTimes[i], got.rxTimes[i], slack)
		}
		if i > 0 && got.evTimes[i] == got.evTimes[i-1] {
			coalesced = true
		}
	}
	for i := range ref.rxTimes {
		if ref.evTimes[i] != ref.rxTimes[i] {
			t.Fatalf("per-frame delivery %d at %v, want exactly rxTime %v", i, ref.evTimes[i], ref.rxTimes[i])
		}
	}
	if !coalesced {
		t.Fatal("slack run never coalesced two deliveries into one event")
	}
}

// TestTransmitJitterMatchesProfile pins the transmit path's inlined
// jitter draw against refJitter: same seed, same sequence of receive
// instants.
func TestTransmitJitterMatchesProfile(t *testing.T) {
	eng := sim.NewEngine(11)
	ep := &collectEndpoint{}
	l := NewLink(eng, Speed10G, PHY10GBaseT, 2, ep)
	// The link's jitter stream is the engine's first derived stream.
	ref := rand.New(rand.NewSource(sim.SplitMix64(11, 1)))
	var want []sim.Time
	eng.Spawn("tx", func(p *sim.Proc) {
		last := sim.Time(0)
		for i := 0; i < 5000; i++ {
			p.SleepUntil(l.NextTxSlot())
			start := l.NextTxSlot()
			rx := start.Add(l.pathLat).Add(refJitter(PHY10GBaseT, ref))
			if rx < last {
				rx = last
			}
			last = rx
			want = append(want, rx)
			l.Transmit(&Frame{WireSize: 64, CRCOK: true})
		}
	})
	eng.RunAll()
	if len(ep.times) != len(want) {
		t.Fatalf("delivered %d, want %d", len(ep.times), len(want))
	}
	for i := range want {
		if ep.times[i] != want[i] {
			t.Fatalf("frame %d rxTime %v, want %v (inlined draw diverged from refJitter)", i, ep.times[i], want[i])
		}
	}
}
