package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mempool"
	"repro/internal/nic"
	"repro/internal/proto"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Template addresses of the paced-load packet fill, hoisted so pool
// prefill callbacks do not re-parse dotted quads per buffer.
var (
	loadSrcIP  = proto.MustIPv4("10.0.0.1")
	loadDstIP  = proto.MustIPv4("10.1.0.1")
	loadBaseIP = proto.MustIPv4("10.0.0.0")
)

// loadPoolBufSize returns the buffer data room for a paced-load pool:
// the packet plus slack, rounded so the pool slab stays small (the
// experiments' frames are 60-252 B; a 2 kB room per buffer would spend
// most of the setup cost zeroing bytes no packet touches).
func loadPoolBufSize(pktSize int) int {
	const grain = 256
	return (pktSize + grain - 1) / grain * grain
}

// pacedLoad simulates generator cores running a given workload: each
// core's task performs the real per-packet work (field randomization,
// offload flags) and paces itself by the cycle-cost model — exactly the
// paper's §5.1 methodology where the CPU frequency is the controlled
// variable. Line-rate limits emerge from the NIC/wire models, not from
// arithmetic.
type pacedLoad struct {
	cores    int
	freq     cpu.Freq
	workload cpu.Workload
	pktSize  int // frame size without FCS
	// queues[i] lists the TX queues core i drives round-robin (one
	// per port for the multi-port scaling experiments).
	queues [][]*nic.TxQueue
}

// run executes the load for window and returns total packets emitted by
// the NICs within the window.
func (pl *pacedLoad) run(app *core.App, window sim.Duration) (totalPkts uint64, totalBytes uint64) {
	perPkt := pl.workload.TimePerPacket(pl.freq)
	// One template serves every core's pool prefill: the headers are
	// flow constants, so prefilling 8192 buffers is 8192 single copies
	// instead of 8192 full header derivations.
	tmpl := proto.NewUDPTemplate(proto.UDPPacketFill{
		PktLength: pl.pktSize,
		IPSrc:     loadSrcIP,
		IPDst:     loadDstIP,
		UDPSrc:    1234, UDPDst: 5678,
	})
	for c := 0; c < pl.cores; c++ {
		queues := pl.queues[c]
		pool := core.CreateSizedMemPool(8192, loadPoolBufSize(pl.pktSize), func(m *mempool.Mbuf) {
			tmpl.Apply(m.Data[:pl.pktSize])
		})
		// One mempool cache per modeled core over the core's own pool:
		// the batched datapath's allocation front (§4.2).
		cache := pool.NewCache(0)
		workload := pl.workload
		size := pl.pktSize
		app.LaunchTask(fmt.Sprintf("core-%d", c), func(t *core.Task) {
			rng := t.Engine().Rand()
			qi := 0
			tx := &core.BurstTx{Bufs: cache.BufArray(mempool.DefaultBatchSize), Size: size}
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
				for f := 0; f < workload.CounterFields; f++ {
					pkt.UDP().SetSrcPort(uint16(m.Len) + uint16(f))
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
			tx.Run(t)
		})
	}
	// Snapshot NIC counters at a warmup mark and the window edge: the
	// startup transient (first batch still being generated) and the
	// post-window ring drain both fall outside the measurement.
	seen := map[*nic.Port]bool{}
	var ports []*nic.Port
	for _, qs := range pl.queues {
		for _, q := range qs {
			if !seen[q.Port()] {
				seen[q.Port()] = true
				ports = append(ports, q.Port())
			}
		}
	}
	warmup := window / 4
	var warmPkts, warmBytes uint64
	app.Eng.Schedule(app.Now().Add(warmup), func() {
		for _, p := range ports {
			st := p.CounterSnapshot()
			warmPkts += st.TxPackets
			warmBytes += st.TxBytes
		}
	})
	app.Eng.Schedule(app.Now().Add(window), func() {
		for _, p := range ports {
			st := p.CounterSnapshot()
			totalPkts += st.TxPackets
			totalBytes += st.TxBytes
		}
	})
	app.RunFor(window)
	totalPkts -= warmPkts
	totalBytes -= warmBytes
	return totalPkts, totalBytes
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
		queues := scenario.BuildPortPairs(app, nic.ChipX540, 1, 1)
		pl := &pacedLoad{cores: 1, freq: f, workload: w, pktSize: 60, queues: queues}
		pkts, _ := pl.run(app, scale.Window)
		return float64(pkts) / (scale.Window - scale.Window/4).Seconds()
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
	// Simulated is the total modeled time the experiment covered (one
	// measurement window per series point). Dividing it by the wall
	// time of the run gives the sim/wall ratio — the simulator's
	// speed relative to the real testbed it stands in for.
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
		ports := scenario.BuildPortPairs(app, nic.ChipX540, 2, cores)
		queues := make([][]*nic.TxQueue, cores)
		for c := 0; c < cores; c++ {
			queues[c] = []*nic.TxQueue{ports[0][c], ports[1][c]}
		}
		pl := &pacedLoad{
			cores: cores, freq: 1.2 * cpu.GHz,
			workload: cpu.HeavyRandomWorkload,
			pktSize:  60, queues: queues,
		}
		pkts, _ := pl.run(app, scale.Window)
		res.Simulated += scale.Window
		mpps := float64(pkts) / (scale.Window - scale.Window/4).Seconds() / 1e6
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
// 10 GbE ports at 2 GHz (one port per core).
func RunFig4(scale Scale, seed int64) *ScalingResult {
	res := &ScalingResult{}
	res.Title = "Figure 4: multi-core scaling, one 10GbE port per core, 2 GHz"
	res.Columns = []string{"Mpps", "Gbit/s"}
	res.LineRateLimit = 12 * wire.LineRatePPS(wire.Speed10G, 64) / 1e6

	for cores := 1; cores <= 12; cores++ {
		app := core.NewApp(seed + int64(cores))
		queues := scenario.BuildPortPairs(app, nic.ChipX540, cores, 1)
		pl := &pacedLoad{
			cores: cores, freq: 2 * cpu.GHz,
			workload: cpu.SimpleUDPWorkload,
			pktSize:  60, queues: queues,
		}
		pkts, _ := pl.run(app, scale.Window)
		res.Simulated += scale.Window
		mpps := float64(pkts) / (scale.Window - scale.Window/4).Seconds() / 1e6
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
			ports := scenario.BuildPortPairs(app, nic.ChipXL710, 1, cores)
			queues := make([][]*nic.TxQueue, cores)
			for c := 0; c < cores; c++ {
				queues[c] = []*nic.TxQueue{ports[0][c]}
			}
			pl := &pacedLoad{
				cores: cores, freq: 2.4 * cpu.GHz,
				workload: cpu.SimpleUDPWorkload,
				pktSize:  size - proto.FCSLen, queues: queues,
			}
			pkts, bytes := pl.run(app, scale.Window)
			wireBits := float64(bytes+pkts*(proto.FCSLen+proto.WireOverhead)) * 8
			gbps := wireBits / (scale.Window - scale.Window/4).Seconds() / 1e9
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
	queues := scenario.BuildPortPairs(app, nic.ChipX540, 1, 1)
	pl := &pacedLoad{cores: 1, freq: 2.4 * cpu.GHz, workload: w, pktSize: 60, queues: queues}
	pkts, _ := pl.run(app, scale.Window)
	res.SimulatedMpps = float64(pkts) / (scale.Window - scale.Window/4).Seconds() / 1e6

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
		queues := scenario.BuildPortPairs(app, nic.ChipX540, 1, 1)
		pl := &pacedLoad{
			cores: 1, freq: 1.2 * cpu.GHz,
			workload: cpu.HeavyRandomWorkload,
			pktSize:  size - proto.FCSLen, queues: queues,
		}
		pkts, _ := pl.run(app, scale.Window)
		mpps := float64(pkts) / (scale.Window - scale.Window/4).Seconds() / 1e6
		res.MppsTx = append(res.MppsTx, mpps)
		res.Rows = append(res.Rows, Row{Label: fmt.Sprintf("%d B", size), Values: []float64{mpps}})
	}
	res.Notes = append(res.Notes,
		"paper: no difference in CPU cycles for sending across 64-128B; reception likewise")
	return res
}
