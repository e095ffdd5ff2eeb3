package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mempool"
	"repro/internal/nic"
	"repro/internal/proto"
	"repro/internal/rate"
	"repro/internal/sim"
	"repro/internal/wire"
)

func udpPrefill(size int) func(m *mempool.Mbuf) {
	return func(m *mempool.Mbuf) {
		p := proto.UDPPacket{B: m.Data[:size]}
		p.Fill(proto.UDPPacketFill{
			PktLength: size,
			EthSrc:    proto.MAC{0x02, 0, 0, 0, 0, 0x01},
			EthDst:    proto.MAC{0x10, 0x11, 0x12, 0x13, 0x14, 0x15},
			IPSrc:     proto.MustIPv4("10.0.0.1"),
			IPDst:     proto.MustIPv4("192.168.1.1"),
			UDPSrc:    1234,
			UDPDst:    42,
		})
	}
}

func TestAppTaskLifecycle(t *testing.T) {
	app := NewApp(1)
	ran := 0
	app.LaunchTask("a", func(task *Task) {
		for task.Running() {
			ran++
			task.Sleep(sim.Millisecond)
		}
	})
	app.RunFor(10 * sim.Millisecond)
	if ran != 10 {
		t.Fatalf("task ran %d iterations", ran)
	}
}

func TestUDPFloodLineRate(t *testing.T) {
	app := NewApp(3)
	tx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 0})
	rx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 1})
	app.ConnectDevices(tx, rx, wire.PHY10GBaseT, 2)

	srcs := map[proto.IPv4]bool{}
	valid := 0
	rx.SetDeliverHook(func(f *wire.Frame, at sim.Time) bool {
		p := proto.UDPPacket{B: f.Data}
		if !p.VerifyChecksums() {
			t.Error("flood packet failed checksum verification")
		}
		srcs[p.IP().Src()] = true
		valid++
		return true
	})

	const pktSize = 60
	pool := CreateMemPool(4096, udpPrefill(pktSize))
	flood := &UDPFlood{
		Queue:   tx.GetTxQueue(0),
		PktSize: pktSize,
		BaseIP:  proto.MustIPv4("10.0.0.1"),
		Pool:    pool,
	}
	app.LaunchTask("loadSlave", flood.Run)
	const runFor = 5 * sim.Millisecond
	var atStop uint64
	app.Eng.Schedule(sim.Time(runFor), func() { atStop = tx.CounterSnapshot().TxPackets })
	app.RunFor(runFor)
	rx.PullRx()

	pps := float64(atStop) / sim.Duration(runFor).Seconds()
	if math.Abs(pps-14.88e6) > 0.05e6 {
		t.Fatalf("flood rate = %.2f Mpps", pps/1e6)
	}
	// 256 distinct randomized source addresses (§5.2 workload).
	if len(srcs) < 250 || len(srcs) > 256 {
		t.Fatalf("saw %d distinct source IPs", len(srcs))
	}
}

func TestTimestamperLatency(t *testing.T) {
	app := NewApp(4)
	tx := app.ConfigDevice(DeviceConfig{Profile: nic.Chip82599, ID: 0})
	rx := app.ConfigDevice(DeviceConfig{Profile: nic.Chip82599, ID: 1})
	app.ConnectDevices(tx, rx, wire.PHY10GBaseSR, 2)

	ts := NewTimestamper(tx.GetTxQueue(0), rx.Port)
	var h interface {
		Count() uint64
		Mean() sim.Duration
	}
	app.LaunchTask("timestamper", func(task *Task) {
		h = ts.MeasureLatency(task, 200, 0)
	})
	app.RunFor(sim.Second)
	if h.Count() != 200 {
		t.Fatalf("measured %d probes (lost %d)", h.Count(), ts.Lost)
	}
	// Fiber 2 m: ~320 ns, quantized to the 82599's 12.8 ns timer.
	mean := h.Mean().Nanoseconds()
	if math.Abs(mean-320) > 13 {
		t.Fatalf("mean latency = %.1f ns, want ~320", mean)
	}
}

// TestTimestamperWithDrift: per-probe resynchronization keeps
// measurements accurate despite the worst-case 35 µs/s drift (§6.3).
func TestTimestamperWithDrift(t *testing.T) {
	app := NewApp(5)
	tx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 0})
	rx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 1, DriftPPM: 35})
	app.ConnectDevices(tx, rx, wire.PHY10GBaseT, 10)

	ts := NewTimestamper(tx.GetTxQueue(0), rx.Port)
	var mean float64
	app.LaunchTask("timestamper", func(task *Task) {
		h := ts.MeasureLatency(task, 300, 10*sim.Microsecond)
		mean = h.Mean().Nanoseconds()
	})
	app.RunFor(sim.Second)
	// Copper 10 m: ~2195 ns (Table 3), despite the drifting clock.
	if math.Abs(mean-2195.2) > 15 {
		t.Fatalf("mean latency with drift = %.1f ns, want ~2195", mean)
	}
}

func TestTimestamperUDPTooSmall(t *testing.T) {
	app := NewApp(6)
	tx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 0})
	rx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 1})
	app.ConnectDevices(tx, rx, wire.PHY10GBaseT, 2)

	ts := NewTimestamper(tx.GetTxQueue(0), rx.Port)
	ts.UDP = true
	ts.PktSize = 70 // below the 80-byte UDP PTP floor
	ts.Timeout = 100 * sim.Microsecond
	app.LaunchTask("timestamper", func(task *Task) {
		if _, ok := ts.Probe(task); ok {
			t.Error("undersized UDP probe produced a timestamp")
		}
	})
	app.RunFor(10 * sim.Millisecond)
	if ts.Lost != 1 {
		t.Fatalf("lost = %d", ts.Lost)
	}
}

// TestGapTxExactCBR: on a jitter-free fiber path, CRC-gap CBR produces
// *exact* inter-arrival times — the §8 headline property.
func TestGapTxExactCBR(t *testing.T) {
	app := NewApp(7)
	tx := app.ConfigDevice(DeviceConfig{Profile: nic.Chip82599, ID: 0})
	rx := app.ConfigDevice(DeviceConfig{Profile: nic.Chip82599, ID: 1})
	app.ConnectDevices(tx, rx, wire.PHY10GBaseSR, 2)

	var arrivals []sim.Time
	rx.SetDeliverHook(func(f *wire.Frame, at sim.Time) bool {
		arrivals = append(arrivals, at)
		return true
	})

	g := &GapTx{
		Queue:   tx.GetTxQueue(0),
		Pattern: rate.NewCBRPPS(1e6),
		PktSize: 60,
		Fill:    func(m *mempool.Mbuf, i uint64) { udpPrefill(60)(m) },
	}
	app.LaunchTask("gaptx", g.Run)
	app.RunFor(10 * sim.Millisecond)

	st := rx.CounterSnapshot()
	if len(arrivals) < 5000 {
		t.Fatalf("only %d valid arrivals", len(arrivals))
	}
	for i := 1; i < len(arrivals); i++ {
		if gap := arrivals[i].Sub(arrivals[i-1]); gap != sim.Microsecond {
			t.Fatalf("gap %d = %v, want exactly 1us", i, gap)
		}
	}
	// The receiving NIC saw the fillers only as CRC errors.
	if st.RxCRCErrors == 0 {
		t.Fatal("no filler frames observed")
	}
	if st.RxCRCErrors != g.Fillers {
		t.Fatalf("fillers sent %d, dropped %d", g.Fillers, st.RxCRCErrors)
	}
}

// TestGapTxPoissonAccuracy: the Poisson pattern's average rate is
// accurate even though sub-minimum gaps are approximated (§8.4).
func TestGapTxPoissonAccuracy(t *testing.T) {
	app := NewApp(8)
	tx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 0})
	rx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 1})
	app.ConnectDevices(tx, rx, wire.PHY10GBaseT, 2)

	count := 0
	rx.SetDeliverHook(func(f *wire.Frame, at sim.Time) bool { count++; return true })

	const target = 2e6
	g := &GapTx{
		Queue:   tx.GetTxQueue(0),
		Pattern: rate.NewPoissonPPS(target),
		PktSize: 60,
		Fill:    func(m *mempool.Mbuf, i uint64) { udpPrefill(60)(m) },
	}
	app.LaunchTask("gaptx", g.Run)
	const runFor = 20 * sim.Millisecond
	atStop := 0
	app.Eng.Schedule(sim.Time(runFor), func() { rx.PullRx(); atStop = count })
	app.RunFor(runFor)

	got := float64(atStop) / sim.Duration(runFor).Seconds()
	if math.Abs(got-target)/target > 0.01 {
		t.Fatalf("poisson rate = %.3f Mpps, want 2", got/1e6)
	}
	if g.SkippedGaps == 0 {
		t.Fatal("expected some sub-minimum gaps at 2 Mpps Poisson")
	}
}

// TestGapTxSaturatesWire: with CRC-gap control the wire itself is
// always full (real + filler bytes = line rate).
func TestGapTxSaturatesWire(t *testing.T) {
	app := NewApp(9)
	tx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 0})
	rx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 1})
	app.ConnectDevices(tx, rx, wire.PHY10GBaseT, 2)
	rx.SetDeliverHook(func(f *wire.Frame, at sim.Time) bool { return true })

	g := &GapTx{
		Queue:   tx.GetTxQueue(0),
		Pattern: rate.NewCBRPPS(500e3),
		PktSize: 60,
	}
	app.LaunchTask("gaptx", g.Run)
	app.RunFor(5 * sim.Millisecond)
	st := tx.CounterSnapshot()
	wireBytes := st.TxBytes + uint64(st.TxPackets)*(proto.FCSLen+proto.WireOverhead)
	util := float64(wireBytes*8) / (10e9 * sim.Duration(5*sim.Millisecond).Seconds())
	if util < 0.99 {
		t.Fatalf("wire utilization = %.3f, want ~1 (saturated)", util)
	}
}

func TestHWRateTx(t *testing.T) {
	app := NewApp(10)
	tx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 0})
	rx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 1})
	app.ConnectDevices(tx, rx, wire.PHY10GBaseT, 2)
	count := 0
	rx.SetDeliverHook(func(f *wire.Frame, at sim.Time) bool { count++; return true })

	h := &HWRateTx{Queue: tx.GetTxQueue(0), PPS: 1e6, PktSize: 60}
	app.LaunchTask("hwtx", h.Run)
	const runFor = 10 * sim.Millisecond
	atStop := 0
	app.Eng.Schedule(sim.Time(runFor), func() { rx.PullRx(); atStop = count })
	app.RunFor(runFor)
	got := float64(atStop) / sim.Duration(runFor).Seconds()
	if math.Abs(got-1e6)/1e6 > 0.005 {
		t.Fatalf("hw cbr rate = %.0f", got)
	}
}

// pushBed is a two-port 10GbE testbed whose receiver counts (and
// consumes) every delivered frame; delivered pulls it and returns the
// count.
func pushBed(seed int64, txRing int) (app *App, q *nic.TxQueue, delivered func() int) {
	app = NewApp(seed)
	tx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 0, TxRing: txRing})
	rx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 1})
	app.ConnectDevices(tx, rx, wire.PHY10GBaseT, 2)
	n := 0
	rx.SetDeliverHook(func(f *wire.Frame, at sim.Time) bool { n++; return true })
	return app, tx.GetTxQueue(0), func() int { rx.PullRx(); return n }
}

// TestPushTxFollowsSchedule pins the kernel's pacing contract: slot n is
// pushed at exactly start + schedule(n), for every slot whose deadline
// falls inside the run, whatever the schedule's shape.
func TestPushTxFollowsSchedule(t *testing.T) {
	const runFor = 200 * sim.Microsecond
	ramp := func(j uint64) sim.Duration { // base, peak, base again
		switch {
		case j < 10:
			return sim.Duration(j) * 4 * sim.Microsecond
		case j < 60:
			return 40*sim.Microsecond + sim.Duration(j-10)*sim.Microsecond
		default:
			return 90*sim.Microsecond + sim.Duration(j-60)*4*sim.Microsecond
		}
	}
	poisson := rate.NewPoissonPPS(500e3)
	cases := []struct {
		name     string
		schedule func() func(n uint64) sim.Duration
	}{
		{"uniform-phase", func() func(uint64) sim.Duration { return Uniform(300*sim.Nanosecond, 2*sim.Microsecond) }},
		{"ramp", func() func(uint64) sim.Duration { return ramp }},
		{"pattern", func() func(uint64) sim.Duration {
			return PatternSchedule(poisson, rand.New(rand.NewSource(7)))
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			app, q, delivered := pushBed(11, 0)
			pool := CreateSizedMemPool(64, 60, udpPrefill(60))
			var pushed []sim.Time
			record := func(m *mempool.Mbuf, now sim.Time) { pushed = append(pushed, now) }
			p := &PushTx{Queue: q, Schedule: c.schedule()}
			p.Slot = func(uint64) { p.Send(pool, 60, record) }
			app.LaunchTask("push", p.Run)
			app.RunFor(runFor)

			// The expected grid, recomputed independently of the kernel:
			// every deadline inside the run, none after it.
			var want []sim.Time
			schedule := c.schedule()
			for n := uint64(0); ; n++ {
				at := sim.Time(schedule(n))
				if at >= sim.Time(runFor) {
					break
				}
				want = append(want, at)
			}
			if !slices.Equal(pushed, want) {
				t.Fatalf("pushed at %v\nwant %v", pushed, want)
			}
			if p.Sent != uint64(len(want)) || p.Failed != 0 {
				t.Fatalf("sent %d, failed %d; want %d slots, none failed", p.Sent, p.Failed, len(want))
			}
			if delivered() != len(want) || pool.Available() != 64 {
				t.Fatalf("delivered %d of %d, pool back to %d of 64", delivered(), len(want), pool.Available())
			}
		})
	}
}

// TestPushTxCountsFailedSlots pins both failure paths: a slot whose pool
// is dry is dropped, and a frame the full descriptor ring refuses is
// freed. Each counts in Failed, the hook sees each outcome, and every
// buffer returns to its pool.
func TestPushTxCountsFailedSlots(t *testing.T) {
	t.Run("pool-dry", func(t *testing.T) {
		app, q, delivered := pushBed(12, 0)
		pool := CreateSizedMemPool(64, 60, udpPrefill(60))
		dry := CreateSizedMemPool(1, 60, nil)
		held := dry.Alloc(60) // the pool's only buffer: every Alloc fails
		var ok, failed uint64
		p := &PushTx{Queue: q, Schedule: Uniform(0, sim.Microsecond)}
		p.Slot = func(n uint64) {
			a := pool
			if n%4 == 3 {
				a = dry
			}
			if p.Send(a, 60, nil) {
				ok++
			} else {
				failed++
			}
		}
		app.LaunchTask("push", p.Run)
		app.RunFor(100 * sim.Microsecond)
		held.Free()
		if p.Sent != 75 || p.Failed != 25 || ok != p.Sent || failed != p.Failed {
			t.Fatalf("sent %d failed %d (hook saw %d/%d), want 75/25", p.Sent, p.Failed, ok, failed)
		}
		if delivered() != 75 || pool.Available() != 64 || dry.Available() != 1 {
			t.Fatalf("delivered %d, pools back to %d/64 and %d/1", delivered(), pool.Available(), dry.Available())
		}
	})
	t.Run("ring-full", func(t *testing.T) {
		// A 1 kpps shaper behind an 8-deep ring cannot keep up with a
		// 1 Mpps slot grid: the ring fills and refuses the rest.
		app, q, delivered := pushBed(13, 8)
		q.SetRatePPS(1e3)
		pool := CreateSizedMemPool(64, 60, udpPrefill(60))
		var ok, failed uint64
		p := &PushTx{Queue: q, Schedule: Uniform(0, sim.Microsecond)}
		p.Slot = func(uint64) {
			if p.Send(pool, 60, nil) {
				ok++
			} else {
				failed++
			}
		}
		app.LaunchTask("push", p.Run)
		app.RunFor(100 * sim.Microsecond)
		if p.Sent+p.Failed != 100 || p.Sent < 8 || p.Failed == 0 || ok != p.Sent || failed != p.Failed {
			t.Fatalf("sent %d failed %d (hook saw %d/%d) over 100 slots", p.Sent, p.Failed, ok, failed)
		}
		if delivered() != int(p.Sent) || pool.Available() != 64 {
			t.Fatalf("delivered %d of %d sent, pool back to %d of 64", delivered(), p.Sent, pool.Available())
		}
	})
}

// TestPushTxSteadyStateAllocs pins the kernel's hot path at zero heap
// allocations per slot once the testbed is warm.
func TestPushTxSteadyStateAllocs(t *testing.T) {
	app, q, delivered := pushBed(14, 0)
	pool := CreateSizedMemPool(64, 60, udpPrefill(60))
	var seq uint64
	stamp := func(m *mempool.Mbuf, now sim.Time) { seq++ }
	p := &PushTx{Queue: q, Schedule: Uniform(0, sim.Microsecond)}
	p.Slot = func(uint64) { p.Send(pool, 60, stamp) }
	app.LaunchTask("push", p.Run)
	app.Eng.SetRunFor(sim.Second)
	until := sim.Time(100 * sim.Microsecond)
	app.Eng.Run(until) // warm up rings, wheel buckets and frame free lists
	allocs := testing.AllocsPerRun(100, func() {
		until = until.Add(10 * sim.Microsecond)
		app.Eng.Run(until)
		delivered() // the receiver drains, so sent frames recycle
	})
	app.Eng.Stop()
	app.Eng.RunAll()
	if allocs != 0 {
		t.Fatalf("steady-state slots allocate %.2f times per 10 slots, want 0", allocs)
	}
	if p.Sent < 1000 || p.Failed != 0 || seq != p.Sent {
		t.Fatalf("sent %d failed %d filled %d", p.Sent, p.Failed, seq)
	}
}
