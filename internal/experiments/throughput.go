package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mempool"
	"repro/internal/nic"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Template addresses of the cost-model load's packet fill, hoisted so
// pool prefill callbacks do not re-parse dotted quads per buffer.
var (
	loadSrcIP = proto.MustIPv4("10.0.0.1")
	loadDstIP = proto.MustIPv4("10.1.0.1")
)

// loadPoolSize is the buffer count of each core's mempool. It bounds
// the core's working set with headroom: the burst kernel
// back-pressures on the 1024-deep TX rings (two per core at most
// here), so at most the rings and a few wire trains are ever in
// flight, and a smaller slab keeps pool construction (slab
// zeroing) off the setup cost.
const loadPoolSize = 4096

// loadPoolBufSize returns the buffer data room for a load pool: the
// packet plus slack, rounded so the pool slab stays small (the
// experiments' frames are 60-252 B; a 2 kB room per buffer would spend
// most of the setup cost zeroing bytes no packet touches).
func loadPoolBufSize(pktSize int) int {
	const grain = 256
	return (pktSize + grain - 1) / grain * grain
}

// sinkRxDepth is the receive ring and pool size of a scaling bed's
// sink. Nothing drains the sink, so its buffers are taken once and
// every later frame is missed; a small ring keeps few frames in flight
// on the pulled link into it, and a pool no larger than the ring keeps
// the receive slab small.
const sinkRxDepth = 32

// buildPortPairs creates ports generator ports with cores TX queues
// each, every port cabled to an undrained sink, and returns one queue
// list per core: queue c of every port. The sinks take no events:
// nothing pulls their links but a full FIFO (wire.Link.SetCapacity).
func buildPortPairs(app *core.App, profile nic.Profile, ports, cores int) [][]*nic.TxQueue {
	phy := wire.PHY10GBaseT
	if profile.Speed == wire.Speed40G {
		phy = wire.PHY10GBaseSR
	}
	out := make([][]*nic.TxQueue, cores)
	for i := 0; i < ports; i++ {
		gen := app.ConfigDevice(core.DeviceConfig{Profile: profile, ID: 2 * i, TxQueues: cores})
		sink := app.ConfigDevice(core.DeviceConfig{Profile: profile, ID: 2*i + 1, RxRing: sinkRxDepth, RxPool: sinkRxDepth})
		app.ConnectDevices(gen, sink, phy, 2)
		for c := range out {
			out[c] = append(out[c], gen.GetTxQueue(c))
		}
	}
	return out
}

// costLoad simulates generator cores running a workload paced by the
// cycle-cost model — the paper's §5.1 method, where the CPU frequency
// is the controlled variable. Each core's task performs the real
// per-packet work (field randomization, offload flags) and sleeps the
// modeled CPU time of every burst. Line-rate limits emerge from the
// NIC and wire models, not from arithmetic.
type costLoad struct {
	freq     cpu.Freq
	workload cpu.Workload
	pktSize  int // frame size without FCS
	// queues[c] lists the TX queues core c drives round-robin, one on
	// every port (the layout buildPortPairs returns).
	queues [][]*nic.TxQueue
}

// run drives the load on app for window. It returns the packets and
// bytes the NICs transmitted between the warmup mark (window/4) and
// the window edge, so the startup transient and the post-window ring
// drain fall outside the measurement, plus one finalized counter per
// core fed from the warmup mark on.
func (l *costLoad) run(app *core.App, window sim.Duration) (pkts, bytes uint64, ctrs []*stats.Counter) {
	warmup := window / 4
	warm := app.Now().Add(warmup)
	perPkt := l.workload.TimePerPacket(l.freq)
	size, workload := l.pktSize, l.workload
	// One template serves every core's pool prefill: the headers are
	// flow constants, so prefilling a pool is one copy per buffer
	// instead of one full header derivation.
	tmpl := proto.NewUDPTemplate(proto.UDPPacketFill{
		PktLength: size,
		IPSrc:     loadSrcIP,
		IPDst:     loadDstIP,
		UDPSrc:    1234, UDPDst: 5678,
	})
	ctrs = make([]*stats.Counter, len(l.queues))
	for c, queues := range l.queues {
		name := fmt.Sprintf("core-%d", app.Shard+c)
		pool := core.CreateSizedMemPool(loadPoolSize, loadPoolBufSize(size), func(m *mempool.Mbuf) {
			tmpl.Apply(m.Data[:size])
		})
		ctr := stats.NewCounter(stats.CounterConfig{
			Name: name, Format: stats.FormatNone,
			Window: (window - warmup) / 4, Start: warm,
		})
		ctrs[c] = ctr
		app.LaunchTask(name, func(t *core.Task) {
			rng := t.Engine().Rand()
			qi := 0
			tx := &core.BurstTx{Bufs: pool.BufArray(mempool.DefaultBatchSize), Size: size}
			// Perform the per-packet modifications the workload describes
			// (the script body of §5.3).
			tx.Frame = func(m *mempool.Mbuf, _ uint64) {
				pkt := proto.UDPPacket{B: m.Payload()}
				for f := 0; f < workload.RandFields; f++ {
					v := rng.Uint32()
					switch f {
					case 0:
						pkt.IP().SetSrc(proto.IPv4(v))
					case 1:
						pkt.IP().SetDst(proto.IPv4(v))
					case 2:
						pkt.UDP().SetSrcPort(uint16(v))
					case 3:
						pkt.UDP().SetDstPort(uint16(v))
					default:
						pl := pkt.Payload()
						if len(pl) >= 4*(f-3) {
							idx := 4 * (f - 4)
							pl[idx] = byte(v)
							pl[idx+1] = byte(v >> 8)
							pl[idx+2] = byte(v >> 16)
							pl[idx+3] = byte(v >> 24)
						}
					}
				}
				switch workload.Offload {
				case cpu.OffloadIP:
					m.TxMeta.OffloadIPChecksum = true
				case cpu.OffloadUDP:
					m.TxMeta.OffloadIPChecksum = true
					m.TxMeta.OffloadUDPChecksum = true
				case cpu.OffloadTCP:
					m.TxMeta.OffloadIPChecksum = true
					m.TxMeta.OffloadTCPChecksum = true
				}
			}
			// CPU time for the burst, per the cost model; then the next
			// queue of the core's round-robin carries it.
			tx.BeforeSend = func(n int) {
				t.Sleep(sim.Duration(n) * perPkt)
				tx.Queue = queues[qi]
				qi = (qi + 1) % len(queues)
			}
			tx.AfterSend = func(n, _ int) {
				if t.Now() >= warm {
					ctr.Update(n, n*size, t.Now())
				}
			}
			tx.Run(t)
		})
	}
	// Snapshot the NIC counters at the warmup mark and the window
	// edge. Every core drives every port, so core 0's queues name them
	// all.
	snapshot := func(pkts, bytes *uint64) func() {
		return func() {
			for _, q := range l.queues[0] {
				st := q.Port().CounterSnapshot()
				*pkts += st.TxPackets
				*bytes += st.TxBytes
			}
		}
	}
	var warmPkts, warmBytes uint64
	app.Eng.Schedule(warm, snapshot(&warmPkts, &warmBytes))
	app.Eng.Schedule(app.Now().Add(window), snapshot(&pkts, &bytes))
	app.RunFor(window)
	for _, ctr := range ctrs {
		ctr.Finalize(app.Now())
	}
	return pkts - warmPkts, bytes - warmBytes, ctrs
}

// pps converts a packet count that costLoad.run measured over
// s.Window into a rate: the count covers the window after its warmup
// quarter.
func (s Scale) pps(pkts uint64) float64 {
	return float64(pkts) / (s.Window - s.Window/4).Seconds()
}

// FreqSweepResult is §5.2: rate versus CPU frequency for MoonGen and
// Pktgen-DPDK on the simple UDP workload.
type FreqSweepResult struct {
	Table
	// MinLineRateFreqMoonGen/Pktgen are the lowest frequencies (GHz)
	// that reach 14.88 Mpps. Paper: 1.5 and 1.7.
	MinLineRateFreqMoonGen float64
	MinLineRateFreqPktgen  float64
	// PktgenAt15 is Pktgen-DPDK's rate at 1.5 GHz. Paper: 14.12 Mpps.
	PktgenAt15 float64
}

// RunFreqSweep reproduces the §5.2 comparison.
func RunFreqSweep(scale Scale, seed int64) *FreqSweepResult {
	res := &FreqSweepResult{}
	res.Title = "§5.2 frequency sweep: single core, 64B UDP, 256 varying source IPs"
	res.Columns = []string{"MoonGen Mpps", "Pktgen Mpps"}
	lineRate := wire.LineRatePPS(wire.Speed10G, 64)

	runOne := func(w cpu.Workload, f cpu.Freq, seed int64) float64 {
		app := core.NewApp(seed)
		l := &costLoad{freq: f, workload: w, pktSize: 60, queues: buildPortPairs(app, nic.ChipX540, 1, 1)}
		pkts, _, _ := l.run(app, scale.Window)
		return scale.pps(pkts)
	}

	for f := cpu.MinFreq; f <= cpu.MaxFreq+1; f += cpu.FreqStep {
		mg := runOne(cpu.SimpleUDPWorkload, f, seed)
		pg := runOne(cpu.PktgenDPDKWorkload, f, seed+1)
		res.Rows = append(res.Rows, Row{
			Label:  fmt.Sprintf("%.1f GHz", float64(f)/1e9),
			Values: []float64{mg / 1e6, pg / 1e6},
		})
		if res.MinLineRateFreqMoonGen == 0 && mg >= lineRate*0.999 {
			res.MinLineRateFreqMoonGen = float64(f) / 1e9
		}
		if res.MinLineRateFreqPktgen == 0 && pg >= lineRate*0.999 {
			res.MinLineRateFreqPktgen = float64(f) / 1e9
		}
		if f == 1.5*cpu.GHz {
			res.PktgenAt15 = pg / 1e6
		}
	}
	res.Notes = append(res.Notes,
		"paper: MoonGen reaches 14.88 Mpps at 1.5 GHz; Pktgen-DPDK needs 1.7 GHz (14.12 Mpps at 1.5)")
	return res
}

// ScalingResult is a cores-versus-rate series (Figures 2 and 4).
type ScalingResult struct {
	Table
	// Mpps[i] is the total rate with i+1 cores.
	Mpps []float64
	// LineRateLimit is the aggregate line-rate cap in Mpps.
	LineRateLimit float64
	// Simulated is the total modeled time the experiment covered: one
	// measurement window per series point (Figure 4's shards run
	// concurrently over the same window, so a point counts once).
	// Dividing it by the wall time of the run gives the sim/wall ratio
	// — the simulator's speed relative to the real testbed it stands
	// in for.
	Simulated sim.Duration
}

// RunFig2 reproduces Figure 2: multi-core scaling under the heavy
// random workload (8 random fields), 1.2 GHz cores, two 10 GbE ports
// per core.
func RunFig2(scale Scale, seed int64) *ScalingResult {
	res := &ScalingResult{}
	res.Title = "Figure 2: multi-core scaling under high load (1.2 GHz, 2 ports)"
	res.Columns = []string{"Mpps", "Gbit/s"}
	res.LineRateLimit = 2 * wire.LineRatePPS(wire.Speed10G, 64) / 1e6

	for cores := 1; cores <= 8; cores++ {
		app := core.NewApp(seed + int64(cores))
		// Two ports; each core drives one queue on each port.
		l := &costLoad{
			freq: 1.2 * cpu.GHz, workload: cpu.HeavyRandomWorkload,
			pktSize: 60, queues: buildPortPairs(app, nic.ChipX540, 2, cores),
		}
		pkts, _, _ := l.run(app, scale.Window)
		res.Simulated += scale.Window
		mpps := scale.pps(pkts) / 1e6
		res.Mpps = append(res.Mpps, mpps)
		res.Rows = append(res.Rows, Row{
			Label:  fmt.Sprintf("%d cores", cores),
			Values: []float64{mpps, mpps * 84 * 8 / 1e3},
		})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("dashed line-rate limit: %.2f Mpps (2 x 10GbE)", res.LineRateLimit),
		"paper: linear scaling up to the line rate limit")
	return res
}

// RunFig4 reproduces Figure 4: scaling to 120 Gbit/s across twelve
// 10 GbE ports at 2 GHz, one engine shard and port per core (the 2 GHz
// series of RunMulticoreScaling).
func RunFig4(scale Scale, seed int64) *ScalingResult {
	res := &ScalingResult{}
	res.Title = "Figure 4: multi-core scaling, one 10GbE port per core, 2 GHz"
	res.Columns = []string{"Mpps", "Gbit/s"}
	res.LineRateLimit = 12 * wire.LineRatePPS(wire.Speed10G, 64) / 1e6

	for cores := 1; cores <= 12; cores++ {
		mpps, _ := runMulticorePoint(scale, seed+int64(cores), cores, cpu.SimpleUDPWorkload, 2*cpu.GHz)
		res.Simulated += scale.Window
		res.Mpps = append(res.Mpps, mpps)
		res.Rows = append(res.Rows, Row{
			Label:  fmt.Sprintf("%d cores", cores),
			Values: []float64{mpps, mpps * 84 * 8 / 1e3},
		})
	}
	res.Notes = append(res.Notes,
		"paper: 178.5 Mpps at 120 Gbit/s with 12 cores (line rate on every port)")
	return res
}

// Fig3Result is the XL710 40 GbE size/core sweep.
type Fig3Result struct {
	Table
	// WireGbps[cores-1][sizeIdx] is the achieved wire-level rate.
	WireGbps [3][7]float64
	Sizes    [7]int
}

// RunFig3 reproduces Figure 3: XL710 throughput by packet size and core
// count, exposing the chip's §5.4 hardware bottlenecks.
func RunFig3(scale Scale, seed int64) *Fig3Result {
	res := &Fig3Result{Sizes: [7]int{64, 96, 128, 160, 192, 224, 256}}
	res.Title = "Figure 3: XL710 40GbE throughput vs packet size (2.4 GHz cores)"
	res.Columns = []string{"1 core", "2 cores", "3 cores"}

	for si, size := range res.Sizes {
		vals := make([]float64, 3)
		for cores := 1; cores <= 3; cores++ {
			app := core.NewApp(seed + int64(100*si+cores))
			l := &costLoad{
				freq: 2.4 * cpu.GHz, workload: cpu.SimpleUDPWorkload,
				pktSize: size - proto.FCSLen, queues: buildPortPairs(app, nic.ChipXL710, 1, cores),
			}
			pkts, bytes, _ := l.run(app, scale.Window)
			gbps := scale.pps(bytes+pkts*(proto.FCSLen+proto.WireOverhead)) * 8 / 1e9
			vals[cores-1] = gbps
			res.WireGbps[cores-1][si] = gbps
		}
		res.Rows = append(res.Rows, Row{Label: fmt.Sprintf("%d B", size), Values: vals})
	}
	res.Notes = append(res.Notes,
		"paper: sizes <=128 B cannot reach 40G line rate; >2 cores do not help (hardware bottleneck)")
	return res
}

// RunTable1 prints the per-packet cost table (model constants used by
// the simulation, from the paper's measurements). The Go-level costs of
// this implementation are measured separately by the benchmarks.
func RunTable1() *Table {
	t := &Table{
		Title:   "Table 1: per-packet costs of basic operations (cycles/pkt)",
		Columns: []string{"cycles/pkt", "± std"},
	}
	rows := []struct {
		label string
		v, s  float64
	}{
		{"Packet transmission", cpu.CostPacketIO, cpu.CostPacketIOStd},
		{"Packet modification", cpu.CostModify, cpu.CostModifyStd},
		{"Packet modification (two cachelines)", cpu.CostModifyTwoCachelines, cpu.CostModifyTwoCachelinesStd},
		{"IP checksum offloading", cpu.CostOffloadIP, cpu.CostOffloadIPStd},
		{"UDP checksum offloading", cpu.CostOffloadUDP, cpu.CostOffloadUDPStd},
		{"TCP checksum offloading", cpu.CostOffloadTCP, cpu.CostOffloadTCPStd},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, Row{Label: r.label, Values: []float64{r.v, r.s}})
	}
	return t
}

// RunTable2 prints the randomization-cost table.
func RunTable2() *Table {
	t := &Table{
		Title:   "Table 2: per-packet costs of modifications (cycles/pkt)",
		Columns: []string{"rand", "counter"},
		Notes: []string{
			fmt.Sprintf("baseline (constant write + send): %.1f cycles/pkt", cpu.CostBaselineConstant),
			"paper: prefer wrapping counters (1 cycle/field marginal) over rand (17 cycles/field)",
		},
	}
	for _, n := range []int{1, 2, 4, 8} {
		t.Rows = append(t.Rows, Row{
			Label:  fmt.Sprintf("%d fields", n),
			Values: []float64{cpu.RandFieldCycles(n), cpu.CounterFieldCycles(n)},
		})
	}
	return t
}

// CostEstimateResult is §5.6.3: predicted versus simulated throughput
// of the heavy random workload at 2.4 GHz.
type CostEstimateResult struct {
	Table
	PredictedMpps float64
	PredictedStd  float64
	SimulatedMpps float64
}

// RunCostEstimate reproduces the §5.6.3 example.
func RunCostEstimate(scale Scale, seed int64) *CostEstimateResult {
	w := cpu.HeavyRandomWorkload
	res := &CostEstimateResult{
		PredictedMpps: w.PPS(2.4*cpu.GHz) / 1e6,
		PredictedStd:  w.PPSPredictionStd(2.4*cpu.GHz) / 1e6,
	}
	app := core.NewApp(seed)
	l := &costLoad{freq: 2.4 * cpu.GHz, workload: w, pktSize: 60, queues: buildPortPairs(app, nic.ChipX540, 1, 1)}
	pkts, _, _ := l.run(app, scale.Window)
	res.SimulatedMpps = scale.pps(pkts) / 1e6

	res.Title = "§5.6.3 cost estimation example (heavy random workload, 2.4 GHz)"
	res.Columns = []string{"Mpps"}
	res.Rows = []Row{
		{Label: fmt.Sprintf("predicted (%.1f±%.1f cycles/pkt)", w.Cycles(), w.CyclesStd()), Values: []float64{res.PredictedMpps}},
		{Label: "prediction ± (Mpps)", Values: []float64{res.PredictedStd}},
		{Label: "simulated", Values: []float64{res.SimulatedMpps}},
	}
	res.Notes = append(res.Notes, "paper: predicted 10.47±0.18 Mpps, measured 10.3 Mpps")
	return res
}

// SizeSweepResult is §5.7: per-packet CPU cost is flat across frame
// sizes 64-128 B for both transmit and receive.
type SizeSweepResult struct {
	Table
	// MppsTx[i] is the achieved rate at size 64+i*8; flatness of this
	// series (CPU-bound, so rate == cost ceiling) is the claim.
	MppsTx []float64
}

// RunSizeSweep reproduces the §5.7 experiment: clock low enough that
// the CPU is the bottleneck, then sweep sizes 64..128.
func RunSizeSweep(scale Scale, seed int64) *SizeSweepResult {
	res := &SizeSweepResult{}
	res.Title = "§5.7 packet sizes 64-128B: CPU-bound rate is size-independent"
	res.Columns = []string{"Mpps"}
	for size := 64; size <= 128; size += 8 {
		app := core.NewApp(seed + int64(size))
		l := &costLoad{
			freq: 1.2 * cpu.GHz, workload: cpu.HeavyRandomWorkload,
			pktSize: size - proto.FCSLen, queues: buildPortPairs(app, nic.ChipX540, 1, 1),
		}
		pkts, _, _ := l.run(app, scale.Window)
		mpps := scale.pps(pkts) / 1e6
		res.MppsTx = append(res.MppsTx, mpps)
		res.Rows = append(res.Rows, Row{Label: fmt.Sprintf("%d B", size), Values: []float64{mpps}})
	}
	res.Notes = append(res.Notes,
		"paper: no difference in CPU cycles for sending across 64-128B; reception likewise")
	return res
}
