package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dut"
	"repro/internal/flow"
	"repro/internal/mempool"
	"repro/internal/nic"
	"repro/internal/proto"
	"repro/internal/rate"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wire"
)

// x540At1G is the §7.3 transmit NIC: "The generators use an X540 NIC,
// which also supports 1 Gbit/s" — same shaper, GbE line speed.
var x540At1G = func() nic.Profile {
	p := nic.ChipX540
	p.Name = "X540@1G"
	p.Speed = wire.Speed1G
	p.RuntMaxPPS = 1.6e6
	return p
}()

// Generator identifies a rate-control implementation under comparison.
type Generator string

// The §7.3 contenders.
const (
	GenMoonGen Generator = "MoonGen"     // hardware rate control
	GenPktgen  Generator = "Pktgen-DPDK" // software single-packet push
	GenZsend   Generator = "zsend"       // software, bursty (PF_RING ZC)
)

func fillPlainUDP(size int) func(m *mempool.Mbuf, i uint64) {
	// The flow's headers are constant: build the template once and
	// restore it per packet with a single copy (§5.6 authoring rule).
	tmpl := proto.NewUDPTemplate(proto.UDPPacketFill{
		PktLength: size,
		IPSrc:     proto.MustIPv4("10.0.0.1"),
		IPDst:     proto.MustIPv4("10.1.0.1"),
		UDPSrc:    1000, UDPDst: 2000,
	})
	return func(m *mempool.Mbuf, i uint64) {
		tmpl.Apply(m.Payload())
	}
}

// launchGenerator starts the generator's transmit task on q.
func launchGenerator(app *core.App, g Generator, q *nic.TxQueue, pps float64, pktSize int) {
	b2b := wire.FrameTime(q.Port().Speed(), pktSize+proto.FCSLen)
	switch g {
	case GenMoonGen:
		tx := &core.HWRateTx{Queue: q, PPS: pps, PktSize: pktSize, Fill: fillPlainUDP(pktSize)}
		app.LaunchTask("moongen-hw", tx.Run)
	case GenPktgen:
		launchPush(app, "pktgen-push", q, rate.NewSoftPushPPS(pps, b2b), pktSize)
	case GenZsend:
		launchPush(app, "zsend-push", q, rate.NewBurstyPPS(pps, b2b), pktSize)
	}
}

// launchPush starts a software push generator: one plain UDP packet
// per slot, slots paced by pat.
func launchPush(app *core.App, name string, q *nic.TxQueue, pat rate.Pattern, pktSize int) {
	fill := fillPlainUDP(pktSize)
	fillSlot := func(m *mempool.Mbuf, _ sim.Time) { fill(m, 0) }
	tx := &core.PushTx{Queue: q, Schedule: core.PatternSchedule(pat, app.Eng.Rand())}
	tx.Slot = func(uint64) { tx.Send(app.TxPool(), pktSize, fillSlot) }
	app.LaunchTask(name, tx.Run)
}

// InterArrivalResult is one generator/rate cell of Figure 8 + Table 4.
type InterArrivalResult struct {
	Generator  Generator
	RateKpps   float64
	Hist       *stats.Histogram
	MicroBurst float64 // fraction of gaps at back-to-back time
	Within     map[int]float64
}

// RunInterArrival measures inter-arrival times the paper's way: an
// Intel 82580 receiver timestamps every received packet at line rate
// with 64 ns precision (§6, §7.3); the histogram uses 64 ns bins.
func RunInterArrival(scale Scale, seed int64, g Generator, pps float64) *InterArrivalResult {
	app := core.NewApp(seed)
	tx := app.ConfigDevice(core.DeviceConfig{Profile: x540At1G, ID: 0})
	rx := app.ConfigDevice(core.DeviceConfig{Profile: nic.Chip82580, ID: 1,
		RxRing: 8192, RxPool: 16384})
	// Ports of differing chips share the 1 GbE copper path.
	app.ConnectDevices(tx, rx, wire.PHY1GBaseT, 2)

	const pktSize = 60
	launchGenerator(app, g, tx.GetTxQueue(0), pps, pktSize)

	hist := stats.NewHistogram(64 * sim.Nanosecond)
	var last int64 = -1
	recv := &core.PollRx{Queue: rx.GetRxQueue(0), Batch: 256,
		Burst: func(bufs []*mempool.Mbuf, _ sim.Time) {
			for _, m := range bufs {
				if m.RxMeta.HasTimestamp {
					if last >= 0 {
						hist.Add(sim.Duration(m.RxMeta.Timestamp - last))
					}
					last = m.RxMeta.Timestamp
				}
			}
		}}
	app.LaunchTask("interarrival", recv.Run)

	window := sim.Duration(float64(scale.Samples) / pps * float64(sim.Second))
	app.RunFor(window)

	b2b := wire.FrameTime(wire.Speed1G, pktSize+proto.FCSLen)
	target := sim.FromSeconds(1 / pps)
	res := &InterArrivalResult{
		Generator: g,
		RateKpps:  pps / 1e3,
		Hist:      hist,
		// Quantization puts back-to-back gaps in the 640/704 ns bins.
		MicroBurst: hist.FractionBelow(b2b + 64*sim.Nanosecond),
		Within:     map[int]float64{},
	}
	for _, tol := range []int{64, 128, 256, 512} {
		res.Within[tol] = hist.FractionWithin(target, sim.Duration(tol)*sim.Nanosecond)
	}
	return res
}

// Table4Result aggregates the six cells of Table 4.
type Table4Result struct {
	Table
	Cells []*InterArrivalResult
}

// RunTable4 reproduces Table 4 (and the data behind Figure 8).
func RunTable4(scale Scale, seed int64) *Table4Result {
	res := &Table4Result{}
	res.Title = "Table 4: rate control measurements (micro-bursts, ±64/128/256/512ns)"
	res.Columns = []string{"µbursts %", "±64ns %", "±128ns %", "±256ns %", "±512ns %"}
	i := int64(0)
	for _, pps := range []float64{500e3, 1000e3} {
		for _, g := range []Generator{GenMoonGen, GenPktgen, GenZsend} {
			c := RunInterArrival(scale, seed+i, g, pps)
			i++
			res.Cells = append(res.Cells, c)
			res.Rows = append(res.Rows, Row{
				Label: fmt.Sprintf("%.0f kpps %s", pps/1e3, g),
				Values: []float64{
					c.MicroBurst * 100,
					c.Within[64] * 100, c.Within[128] * 100,
					c.Within[256] * 100, c.Within[512] * 100,
				},
			})
		}
	}
	res.Notes = append(res.Notes,
		"paper 500kpps: MoonGen 0.02/49.9/74.9/99.8/99.8; Pktgen 0.01/37.7/72.3/92/94.5; zsend 28.6/3.9/5.4/6.4/13.8",
		"paper 1000kpps: MoonGen 1.2/50.5/52/97/100; Pktgen 14.2/36.7/58/70.6/95.9; zsend 52/4.6/7.9/24.2/88.1")
	return res
}

// dutBed is the forwarding testbed: generator -> DuT -> sink. It is
// the shared scenario.DuTBed (same bed every DuT scenario runs on)
// plus the experiment-side launch helpers.
type dutBed struct {
	*scenario.DuTBed
}

func newDutBed(seed int64) *dutBed {
	return &dutBed{DuTBed: scenario.NewDuTBed(core.NewApp(seed), 2)}
}

// RateControlMethod selects how CBR load is produced for Figure 10.
type RateControlMethod string

// Figure 10's two contenders.
const (
	MethodHardware RateControlMethod = "hw-rate-control"
	MethodCRCGap   RateControlMethod = "crc-gap-software"
)

// launchLoad starts the load task for the chosen method/pattern.
func (b *dutBed) launchLoad(method RateControlMethod, pattern rate.Pattern, pps float64, pktSize int) {
	q := b.Gen.GetTxQueue(0)
	switch method {
	case MethodHardware:
		tx := &core.HWRateTx{Queue: q, PPS: pps, PktSize: pktSize, Fill: fillPlainUDP(pktSize)}
		b.App.LaunchTask("load-hw", tx.Run)
	case MethodCRCGap:
		tx := &core.GapTx{Queue: q, Pattern: pattern, PktSize: pktSize, Fill: fillPlainUDP(pktSize)}
		b.App.LaunchTask("load-gap", tx.Run)
	}
}

// probeKey identifies the hardware-timestamped probe stream in the
// receiver-side flow pipeline: the UDP PTP 5-tuple the Timestamper's
// probes would carry.
var probeKey = flow.Key{
	Proto: proto.IPProtoUDP,
	Src:   proto.MustIPv4("10.255.0.1"), Dst: proto.MustIPv4("10.255.0.2"),
	SrcPort: proto.PTPUDPPort, DstPort: proto.PTPUDPPort,
}

// measureLatency runs probes through the DuT and records each
// hardware-timestamped latency into a per-flow flow.Stats record
// keyed as the probe stream — the latency figures draw their
// percentiles from the flow layer's per-flow statistics (the same
// record type the loss/reorder scenarios report through) instead of a
// private ad-hoc histogram. The probe latencies arrive from the
// timestamp latches, not from payload stamps, so they are fed in via
// AddLatency rather than through a tracker's Record path. Probes are
// spread across the window after warmup (≤ 0 selects the default 5%
// ramp-up allowance). The histogram's resolution is the receive port's
// timestamp tick, as in Timestamper.MeasureLatency.
func (b *dutBed) measureLatency(probes int, window, warmup sim.Duration) *flow.Stats {
	fs := &flow.Stats{Key: probeKey, Latency: stats.NewHistogram(b.TS.RxPort.Clock.Tick())}
	if warmup <= 0 {
		warmup = window / 20
	}
	if warmup > window/2 {
		warmup = window / 2
	}
	pace := (window - warmup - window/10) / sim.Duration(probes)
	if pace < 0 {
		pace = 0
	}
	b.App.LaunchTask("timestamping", func(t *core.Task) {
		// Let the load ramp up before probing.
		t.Sleep(warmup)
		b.TS.MeasureLatencyInto(t, probes, pace, fs.AddLatency)
	})
	b.App.RunFor(window)
	return fs
}

// Fig7Result is interrupt rate versus offered load per generator.
type Fig7Result struct {
	Table
	Loads   []float64 // Mpps
	MoonGen []float64 // Hz
	Zsend   []float64 // Hz
}

// RunFig7 reproduces Figure 7: the DuT's interrupt rate under MoonGen
// (hardware CBR) versus zsend (micro-bursts).
func RunFig7(scale Scale, seed int64) *Fig7Result {
	res := &Fig7Result{}
	res.Title = "Figure 7: DuT interrupt rate vs offered load"
	res.Columns = []string{"MoonGen [Hz]", "zsend [Hz]"}
	loads := []float64{0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0}
	window := scale.Window * 10

	intRate := func(g Generator, mpps float64, seed int64) float64 {
		b := newDutBed(seed)
		launchGenerator(b.App, g, b.Gen.GetTxQueue(0), mpps*1e6, 60)
		var atStop uint64
		b.App.Eng.Schedule(sim.Time(window), func() { atStop = b.Fwd.Interrupts })
		b.App.RunFor(window)
		return float64(atStop) / window.Seconds()
	}

	for i, l := range loads {
		mg := intRate(GenMoonGen, l, seed+int64(2*i))
		zs := intRate(GenZsend, l, seed+int64(2*i+1))
		res.Loads = append(res.Loads, l)
		res.MoonGen = append(res.MoonGen, mg)
		res.Zsend = append(res.Zsend, zs)
		res.Rows = append(res.Rows, Row{
			Label:  fmt.Sprintf("%.2f Mpps", l),
			Values: []float64{mg, zs},
		})
	}
	res.Notes = append(res.Notes,
		"paper: MoonGen's rate climbs to ~1.5e5 Hz then collapses once the DuT stays in polling mode;",
		"zsend's micro-bursts keep the interrupt rate low across all loads")
	return res
}

// Fig10Result compares forwarding-latency quartiles under hardware CBR
// versus CRC-gap CBR.
type Fig10Result struct {
	Table
	Loads []float64
	// RelDev[q][i] is the relative deviation of quartile q (0=25th,
	// 1=50th, 2=75th) at load i, in percent.
	RelDev [3][]float64
}

// RunFig10 reproduces Figure 10.
func RunFig10(scale Scale, seed int64) *Fig10Result {
	res := &Fig10Result{}
	res.Title = "Figure 10: latency deviation, CRC-gap vs hardware CBR (percent)"
	res.Columns = []string{"q25 dev %", "q50 dev %", "q75 dev %"}
	loads := []float64{0.1, 0.5, 1.0, 1.5, 1.9}
	window := scale.Window * 10

	quartiles := func(method RateControlMethod, mpps float64, seed int64) [3]float64 {
		b := newDutBed(seed)
		b.launchLoad(method, rate.NewCBRPPS(mpps*1e6), mpps*1e6, 60)
		// Quartile differences of a few percent need more probes than
		// the latency curves do.
		h := b.measureLatency(4*scale.Probes, window, 0)
		q1, q2, q3 := h.Quartiles()
		return [3]float64{q1.Microseconds(), q2.Microseconds(), q3.Microseconds()}
	}

	for i, l := range loads {
		hw := quartiles(MethodHardware, l, seed+int64(10*i))
		sw := quartiles(MethodCRCGap, l, seed+int64(10*i+5))
		var devs [3]float64
		for q := 0; q < 3; q++ {
			devs[q] = (sw[q] - hw[q]) / hw[q] * 100
			res.RelDev[q] = append(res.RelDev[q], devs[q])
		}
		res.Loads = append(res.Loads, l)
		res.Rows = append(res.Rows, Row{
			Label:  fmt.Sprintf("%.2f Mpps", l),
			Values: devs[:],
		})
	}
	res.Notes = append(res.Notes,
		"paper: deviation within 1.2 sigma of 0% at almost all points (worst 1.5%±0.5%)")
	return res
}

// Fig11Result is forwarding latency under CBR versus Poisson traffic.
type Fig11Result struct {
	Table
	Loads []float64
	// CBR/Poisson hold [q25, median, q75] per load in µs.
	CBR     [][3]float64
	Poisson [][3]float64
}

// RunFig11 reproduces Figure 11.
func RunFig11(scale Scale, seed int64) *Fig11Result {
	res := &Fig11Result{}
	res.Title = "Figure 11: forwarding latency, CBR vs Poisson (µs)"
	res.Columns = []string{"CBR q25", "CBR q50", "CBR q75", "Poi q25", "Poi q50", "Poi q75"}
	loads := []float64{0.1, 0.5, 1.0, 1.5, 1.8, 1.95, 2.0, 3.0}
	window := scale.Window * 10

	run := func(method RateControlMethod, pattern rate.Pattern, mpps float64, seed int64) [3]float64 {
		b := newDutBed(seed)
		b.launchLoad(method, pattern, mpps*1e6, 60)
		// Past saturation the DuT buffer takes BacklogLimit/(offered -
		// capacity) to fill; probing before that samples the fill ramp,
		// not the steady buffer-full latency the figure reports. When
		// the transient fits the run, skip it and stretch the window so
		// a useful number of multi-millisecond probes completes (the
		// paper simply runs for 30 s). Barely past saturation the
		// buffer fills slower than any affordable run; that point
		// samples the ramp by design and is asserted only as elevated.
		pointWindow := window
		var warmup sim.Duration
		cfg := dut.DefaultConfig()
		capacity := float64(sim.Second) / float64(cfg.ServiceTime)
		if pps := mpps * 1e6; pps > capacity {
			if fill := sim.FromSeconds(float64(cfg.BacklogLimit) / (pps - capacity)); fill+fill/2 < window {
				warmup = fill + fill/2
				pointWindow = warmup + 3*window
			}
		}
		h := b.measureLatency(scale.Probes, pointWindow, warmup)
		q1, q2, q3 := h.Quartiles()
		return [3]float64{q1.Microseconds(), q2.Microseconds(), q3.Microseconds()}
	}

	for i, l := range loads {
		cbr := run(MethodHardware, rate.NewCBRPPS(l*1e6), l, seed+int64(10*i))
		poi := run(MethodCRCGap, rate.NewPoissonPPS(l*1e6), l, seed+int64(10*i+5))
		res.Loads = append(res.Loads, l)
		res.CBR = append(res.CBR, cbr)
		res.Poisson = append(res.Poisson, poi)
		res.Rows = append(res.Rows, Row{
			Label:  fmt.Sprintf("%.2f Mpps", l),
			Values: []float64{cbr[0], cbr[1], cbr[2], poi[0], poi[1], poi[2]},
		})
	}
	res.Notes = append(res.Notes,
		"paper: Poisson latency rises toward saturation (buffer stress); both collapse to ~2ms",
		"at overload (~1.9 Mpps); achieved throughput is pattern-independent")
	return res
}
