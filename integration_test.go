package repro

import (
	"io"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dut"
	"repro/internal/mempool"
	"repro/internal/nic"
	"repro/internal/proto"
	"repro/internal/rate"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wire"
)

// TestQoSScenario runs the paper's §4 example end to end: two
// rate-limited flows, per-port receive accounting, and checks the flow
// ratio survives the full TX path, wire and RX path.
func TestQoSScenario(t *testing.T) {
	app := core.NewApp(1)
	tDev := app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 0, TxQueues: 2})
	rDev := app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 1, RxRing: 8192, RxPool: 16384})
	app.ConnectDevices(tDev, rDev, wire.PHY10GBaseT, 2)

	const pktSize = 124
	tDev.GetTxQueue(0).SetRatePPS(800e3) // background
	tDev.GetTxQueue(1).SetRatePPS(100e3) // foreground

	launch := func(q *nic.TxQueue, port uint16) {
		mem := core.CreateMemPool(4096, func(buf *mempool.Mbuf) {
			p := proto.UDPPacket{B: buf.Data[:pktSize]}
			p.Fill(proto.UDPPacketFill{
				PktLength: pktSize,
				EthSrc:    tDev.MAC(), EthDst: rDev.MAC(),
				IPDst:  proto.MustIPv4("192.168.1.1"),
				UDPSrc: 1234, UDPDst: port,
			})
		})
		flood := &core.UDPFlood{
			Queue: q, PktSize: pktSize,
			BaseIP: proto.MustIPv4("10.0.0.1"), Randomize: 255,
			Pool: mem, Batch: mempool.DefaultBatchSize,
		}
		app.LaunchTask("load", flood.Run)
	}
	launch(tDev.GetTxQueue(0), 42)
	launch(tDev.GetTxQueue(1), 43)

	counts := map[uint16]int{}
	badChecksums := 0
	counter := &core.PollRx{Queue: rDev.GetRxQueue(0), Batch: 256, Poll: sim.Microsecond,
		Burst: func(bufs []*mempool.Mbuf, _ sim.Time) {
			for _, m := range bufs {
				p := proto.UDPPacket{B: m.Payload()}
				if !p.VerifyChecksums() {
					badChecksums++
				}
				counts[p.UDP().DstPort()]++
			}
		}}
	app.LaunchTask("counter", counter.Run)

	const runFor = 50 * sim.Millisecond
	var bg, fg int
	app.Eng.Schedule(sim.Time(runFor), func() { bg, fg = counts[42], counts[43] })
	app.RunFor(runFor)

	if badChecksums > 0 {
		t.Fatalf("%d packets failed checksum verification", badChecksums)
	}
	gotBG := float64(bg) / sim.Duration(runFor).Seconds()
	gotFG := float64(fg) / sim.Duration(runFor).Seconds()
	if math.Abs(gotBG-800e3)/800e3 > 0.02 {
		t.Errorf("background rate = %.0f, want 800k", gotBG)
	}
	if math.Abs(gotFG-100e3)/100e3 > 0.02 {
		t.Errorf("foreground rate = %.0f, want 100k", gotFG)
	}
}

// TestThroughputPatternIndependence is §8.3's closing observation: the
// achieved DuT throughput is the same regardless of the traffic pattern
// and the rate-control method that generates it.
func TestThroughputPatternIndependence(t *testing.T) {
	run := func(seed int64, useGap bool, pat rate.Pattern, pps float64) float64 {
		app := core.NewApp(seed)
		gen := app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 0})
		dutIn := app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 1})
		dutOut := app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 2})
		sink := app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 3})
		app.ConnectDevices(gen, dutIn, wire.PHY10GBaseT, 2)
		app.ConnectDevices(dutOut, sink, wire.PHY10GBaseT, 2)
		fwd := dut.New(app.Eng, dutIn.Port, dutOut.Port, dut.DefaultConfig())
		sink.SetDeliverHook(func(f *wire.Frame, at sim.Time) bool { return true })

		fill := func(m *mempool.Mbuf, i uint64) {
			p := proto.UDPPacket{B: m.Payload()}
			p.Fill(proto.UDPPacketFill{PktLength: 60,
				IPSrc: proto.MustIPv4("10.0.0.1"), IPDst: proto.MustIPv4("10.1.0.1")})
		}
		if useGap {
			g := &core.GapTx{Queue: gen.GetTxQueue(0), Pattern: pat, PktSize: 60, Fill: fill}
			app.LaunchTask("gap", g.Run)
		} else {
			h := &core.HWRateTx{Queue: gen.GetTxQueue(0), PPS: pps, PktSize: 60, Fill: fill}
			app.LaunchTask("hw", h.Run)
		}
		const runFor = 20 * sim.Millisecond
		var fwdAtStop uint64
		app.Eng.Schedule(sim.Time(runFor), func() { fwdAtStop = fwd.Forwarded })
		app.RunFor(runFor)
		return float64(fwdAtStop) / sim.Duration(runFor).Seconds()
	}

	const pps = 1.5e6
	hwCBR := run(1, false, nil, pps)
	gapCBR := run(2, true, rate.NewCBRPPS(pps), pps)
	gapPoisson := run(3, true, rate.NewPoissonPPS(pps), pps)
	for name, got := range map[string]float64{
		"hw-cbr": hwCBR, "gap-cbr": gapCBR, "gap-poisson": gapPoisson,
	} {
		if math.Abs(got-pps)/pps > 0.02 {
			t.Errorf("%s throughput = %.3f Mpps, want 1.5", name, got/1e6)
		}
	}
}

// TestReflectorRoundTrip exercises the "respond to incoming traffic in
// real time" capability from the conclusions: a reflector task swaps
// MAC/IP addresses on received packets and sends them back; the
// originator verifies payload integrity over the round trip.
func TestReflectorRoundTrip(t *testing.T) {
	app := core.NewApp(5)
	a := app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 0})
	b := app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 1})
	app.ConnectDevices(a, b, wire.PHY10GBaseT, 2)

	// Reflector on device b.
	reflPool := core.CreateMemPool(2048, nil)
	reflector := &core.PollRx{Queue: b.GetRxQueue(0), Batch: 64, Poll: sim.Microsecond,
		Burst: func(bufs []*mempool.Mbuf, _ sim.Time) {
			for _, m := range bufs {
				out := reflPool.Alloc(m.Len)
				if out == nil {
					continue
				}
				copy(out.Data, m.Payload())
				p := proto.UDPPacket{B: out.Payload()}
				eth := p.Eth()
				src, dst := eth.Src(), proto.MAC(eth[0:6])
				eth.SetSrc(dst)
				eth.SetDst(src)
				ip := p.IP()
				s, d := ip.Src(), ip.Dst()
				ip.SetSrc(d)
				ip.SetDst(s)
				out.TxMeta.OffloadIPChecksum = true
				out.TxMeta.OffloadUDPChecksum = true
				if !b.GetTxQueue(0).SendOne(out) {
					out.Free()
				}
			}
		}}
	app.LaunchTask("reflector", reflector.Run)

	// Originator on device a: send marked packets, verify echoes.
	pool := core.CreateMemPool(2048, nil)
	var sent, echoed, corrupt int
	app.LaunchTask("origin", func(tk *core.Task) {
		rx := make([]*mempool.Mbuf, 64)
		for i := 0; i < 500 && tk.Running(); i++ {
			m := pool.Alloc(80)
			p := proto.UDPPacket{B: m.Payload()}
			p.Fill(proto.UDPPacketFill{
				PktLength: 80,
				EthSrc:    a.MAC(), EthDst: b.MAC(),
				IPSrc: proto.MustIPv4("10.0.0.1"), IPDst: proto.MustIPv4("10.0.0.2"),
				UDPSrc: uint16(i), UDPDst: 9999,
			})
			payload := p.Payload()
			payload[0], payload[1] = byte(i), byte(i>>8)
			p.CalcChecksums()
			if tk.SendAll(a.GetTxQueue(0), []*mempool.Mbuf{m}) == 1 {
				sent++
			}
			// Drain echoes opportunistically.
			n := a.GetRxQueue(0).RecvBurst(rx)
			for _, e := range rx[:n] {
				ep := proto.UDPPacket{B: e.Payload()}
				if ep.IP().Dst() != proto.MustIPv4("10.0.0.1") || !ep.VerifyChecksums() {
					corrupt++
				}
				echoed++
			}
			a.GetRxQueue(0).Release()
			tk.Sleep(2 * sim.Microsecond)
		}
		// Final drain.
		for deadline := tk.Now().Add(sim.Millisecond); tk.Now() < deadline; {
			n := a.GetRxQueue(0).RecvBurst(rx)
			if n == 0 {
				tk.Sleep(10 * sim.Microsecond)
				continue
			}
			for _, e := range rx[:n] {
				ep := proto.UDPPacket{B: e.Payload()}
				if !ep.VerifyChecksums() {
					corrupt++
				}
				echoed++
			}
			a.GetRxQueue(0).Release()
		}
	})
	app.RunFor(sim.Second)

	if sent != 500 {
		t.Fatalf("sent %d packets", sent)
	}
	if echoed < 495 {
		t.Fatalf("echoed only %d of %d", echoed, sent)
	}
	if corrupt != 0 {
		t.Fatalf("%d corrupted echoes", corrupt)
	}
}

// TestLatencyThroughDuTMatchesComponents checks that an end-to-end
// hardware-timestamped latency through the DuT decomposes into its
// physical components: two wire paths plus the DuT's internal latency.
func TestLatencyThroughDuTMatchesComponents(t *testing.T) {
	app := core.NewApp(6)
	gen := app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 0, TxQueues: 2})
	dutIn := app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 1})
	dutOut := app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 2})
	sink := app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 3})
	app.ConnectDevices(gen, dutIn, wire.PHY10GBaseT, 10)
	app.ConnectDevices(dutOut, sink, wire.PHY10GBaseT, 10)
	fwd := dut.New(app.Eng, dutIn.Port, dutOut.Port, dut.DefaultConfig())

	ts := core.NewTimestamper(gen.GetTxQueue(1), sink.Port)
	var h *stats.Histogram
	app.LaunchTask("probe", func(tk *core.Task) {
		h = ts.MeasureLatency(tk, 100, 50*sim.Microsecond)
	})
	app.RunFor(100 * sim.Millisecond)

	if h.Count() < 95 {
		t.Fatalf("only %d probes (lost %d)", h.Count(), ts.Lost)
	}
	wirePart := 2 * wire.PHY10GBaseT.PathLatency(10).Nanoseconds()
	minExpected := wirePart // wires alone
	med := h.Percentile(50).Nanoseconds()
	if med < minExpected {
		t.Fatalf("median %.0f ns below physical floor %.0f ns", med, minExpected)
	}
	// DuT internal latency (interrupt + service) dominates; the
	// forwarder's own mean must be consistent with the probe view.
	internal := fwd.MeanInternalLatency().Nanoseconds()
	if med < wirePart+internal/2 || med > wirePart+internal*4 {
		t.Fatalf("median %.0f ns inconsistent with wire %.0f + internal %.0f",
			med, wirePart, internal)
	}
}

// TestDeterministicReproduction: the entire layered stack reproduces
// identical results for identical seeds — the reproducibility claim
// the simulation substrate rests on.
func TestDeterministicReproduction(t *testing.T) {
	run := func() (uint64, uint64) {
		app := core.NewApp(99)
		tx := app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 0})
		rx := app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 1})
		app.ConnectDevices(tx, rx, wire.PHY10GBaseT, 2)
		rx.SetDeliverHook(func(f *wire.Frame, at sim.Time) bool { return true })
		g := &core.GapTx{Queue: tx.GetTxQueue(0), Pattern: rate.NewPoissonPPS(2e6), PktSize: 60}
		app.LaunchTask("gap", g.Run)
		app.RunFor(5 * sim.Millisecond)
		st := tx.CounterSnapshot()
		return st.TxPackets, st.TxBytes
	}
	p1, b1 := run()
	p2, b2 := run()
	if p1 != p2 || b1 != b2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", p1, b1, p2, b2)
	}
}

// settledGoroutines returns the goroutine count once two reads a
// millisecond apart agree. A single read can catch a goroutine on its
// way out — a shard worker of the previous run past the group's wait,
// or the runtime's finalizer goroutine, which counts while it runs a
// finalizer.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestScenariosLeaveNoParkedProcs runs every registered scenario at its
// default spec, on one core and (where the scenario allows sharding) on
// two, and requires the goroutine count not to grow over the run: a
// simulation process holds a goroutine until it returns, so a task
// still parked at the end shows up as growth. Only growth fails; the
// count before may include an earlier test's goroutine on its way out.
func TestScenariosLeaveNoParkedProcs(t *testing.T) {
	for _, name := range scenario.Names() {
		sc, _ := scenario.Get(name)
		for _, cores := range []int{1, 2} {
			if _, single := sc.(scenario.SingleCoreOnly); single && cores > 1 {
				continue
			}
			spec := sc.DefaultSpec()
			spec.Runtime = 5 * sim.Millisecond
			spec.Cores = cores
			before := settledGoroutines()
			if _, err := scenario.Execute(name, spec, io.Discard); err != nil {
				t.Fatalf("%s cores=%d: %v", name, cores, err)
			}
			// Shard goroutines exit asynchronously after the group's
			// wait returns; give them a moment.
			after := runtime.NumGoroutine()
			for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
				after = runtime.NumGoroutine()
			}
			if after > before {
				t.Errorf("%s cores=%d: %d goroutines after the run, %d before", name, cores, after, before)
			}
		}
	}
}
