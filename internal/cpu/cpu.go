// Package cpu models packet-generation CPU cost in cycles per packet.
//
// The paper's methodology (§5.1, following Rizzo's netmap evaluation)
// reduces the CPU to exactly this abstraction: DPDK applications
// busy-wait, so utilization is meaningless and performance is quantified
// by clocking the CPU down until it becomes the bottleneck and counting
// cycles per packet. This package encodes the measured per-operation
// costs from Table 1 and Table 2 and predicts generator throughput from
// them (§5.6.3), which is what the throughput experiments (Figures 2-4)
// are built on. The real Go costs of this repository's implementation
// are measured separately by testing.B benchmarks.
package cpu

import (
	"fmt"

	"repro/internal/sim"
)

// Freq is a CPU core frequency in Hz.
type Freq float64

// Common test frequencies from the paper.
const (
	GHz Freq = 1e9
	// MinFreq and MaxFreq bound the Xeon E5-2620 v3's range used in
	// §5: 1.2 GHz to 2.4 GHz in 100 MHz steps.
	MinFreq = 1.2 * GHz
	MaxFreq = 2.4 * GHz
	// FreqStep is the frequency adjustment granularity.
	FreqStep = 0.1 * GHz
)

// Per-packet cycle costs of basic operations, Table 1 of the paper.
// The ± values are the reported standard deviations over 10 runs;
// they are carried for error propagation in cost estimates.
const (
	// CostPacketIO is allocating a batch of packets and sending them
	// without touching the contents: the DPDK framework cost.
	CostPacketIO = 76.0
	// CostPacketIOStd is the stddev of CostPacketIO.
	CostPacketIOStd = 0.8

	// CostModify writes a constant into the packet (one cacheline).
	CostModify    = 9.1
	CostModifyStd = 1.2

	// CostModifyTwoCachelines additionally touches a second cacheline.
	CostModifyTwoCachelines    = 15.0
	CostModifyTwoCachelinesStd = 1.3

	// Checksum offload costs: setting descriptor bitfields, plus (for
	// UDP/TCP) computing the IP pseudo-header checksum in software
	// because the X540 cannot.
	CostOffloadIP     = 15.2
	CostOffloadIPStd  = 1.2
	CostOffloadUDP    = 33.1
	CostOffloadUDPStd = 3.5
	CostOffloadTCP    = 34.0
	CostOffloadTCPStd = 3.3

	// CostBaselineConstant is Table 2's baseline: writing a constant
	// to a packet and sending it (= CostPacketIO + CostModify).
	CostBaselineConstant = 85.1
)

// FieldCost is one row of Table 2: the per-packet cost of computing and
// writing n varying header fields.
type FieldCost struct {
	Fields int
	Cycles float64
	Std    float64
}

// RandFieldCosts is Table 2's "Cycles/Pkt (Rand)" column: generating a
// random number per field with LuaJIT's Tausworthe generator.
var RandFieldCosts = []FieldCost{
	{1, 32.3, 0.5},
	{2, 39.8, 1.0},
	{4, 66.0, 0.9},
	{8, 133.5, 0.7},
}

// CounterFieldCosts is Table 2's "Cycles/Pkt (Counter)" column: wrapping
// counters instead of random numbers.
var CounterFieldCosts = []FieldCost{
	{1, 27.1, 1.4},
	{2, 33.1, 1.3},
	{4, 38.1, 2.0},
	{8, 41.7, 1.2},
}

// lookupFieldCost interpolates a Table 2 column for any field count.
func lookupFieldCost(table []FieldCost, fields int) float64 {
	if fields <= 0 {
		return 0
	}
	for _, fc := range table {
		if fc.Fields == fields {
			return fc.Cycles
		}
	}
	// Linear interpolation / extrapolation on the marginal cost.
	prev := table[0]
	if fields < prev.Fields {
		return prev.Cycles * float64(fields) / float64(prev.Fields)
	}
	for _, fc := range table[1:] {
		if fields < fc.Fields {
			frac := float64(fields-prev.Fields) / float64(fc.Fields-prev.Fields)
			return prev.Cycles + frac*(fc.Cycles-prev.Cycles)
		}
		prev = fc
	}
	last := table[len(table)-1]
	second := table[len(table)-2]
	marginal := (last.Cycles - second.Cycles) / float64(last.Fields-second.Fields)
	return last.Cycles + marginal*float64(fields-last.Fields)
}

// RandFieldCycles returns the Table 2 cost of n random fields.
func RandFieldCycles(fields int) float64 { return lookupFieldCost(RandFieldCosts, fields) }

// CounterFieldCycles returns the Table 2 cost of n counter fields.
func CounterFieldCycles(fields int) float64 { return lookupFieldCost(CounterFieldCosts, fields) }

// Offload identifies a checksum-offload flavour.
type Offload int

// Offload flavours.
const (
	OffloadNone Offload = iota
	OffloadIP
	OffloadUDP
	OffloadTCP
)

// Cycles returns the Table 1 cost of the offload.
func (o Offload) Cycles() float64 {
	switch o {
	case OffloadIP:
		return CostOffloadIP
	case OffloadUDP:
		return CostOffloadUDP
	case OffloadTCP:
		return CostOffloadTCP
	default:
		return 0
	}
}

// Workload describes a generator script's per-packet work in cost-model
// terms. It is the §5.6.3 estimation recipe as a struct.
type Workload struct {
	Name string

	// RandFields is the number of random header/payload fields
	// generated per packet.
	RandFields int

	// ExtraCachelines is the number of cachelines touched beyond the
	// first when modifying the packet (0 for ≤64 B of writes).
	ExtraCachelines int

	// Offload is the checksum offload requested.
	Offload Offload

	// ExtraCycles covers anything else the script does per packet.
	ExtraCycles float64

	// MemStallNS is a constant-time (frequency-independent) component
	// per packet, modeling memory-bound work. The paper's §5.2
	// explains Pktgen-DPDK's lower efficiency by its complex main
	// loop; a constant-time stall component reproduces its measured
	// frequency scaling (14.12 Mpps at 1.5 GHz, line rate at 1.7 GHz).
	MemStallNS float64
}

// Cycles returns the predicted cycles per packet (the frequency-scaled
// part only; see TimePerPacket for the full time).
func (w Workload) Cycles() float64 {
	c := CostPacketIO + w.ExtraCycles
	if w.RandFields > 0 || w.ExtraCachelines > 0 {
		c += CostModify
	}
	c += float64(w.ExtraCachelines) * (CostModifyTwoCachelines - CostModify)
	c += RandFieldCycles(w.RandFields)
	c += w.Offload.Cycles()
	return c
}

// CyclesStd returns the propagated standard deviation of the estimate
// (root sum of squares of the component stddevs, as in §5.6.3).
func (w Workload) CyclesStd() float64 {
	var varsum float64
	add := func(s float64) { varsum += s * s }
	add(CostPacketIOStd)
	if w.RandFields > 0 || w.ExtraCachelines > 0 {
		add(CostModifyStd)
	}
	if w.ExtraCachelines > 0 {
		add(CostModifyTwoCachelinesStd)
	}
	for _, fc := range RandFieldCosts {
		if fc.Fields == w.RandFields {
			add(fc.Std)
		}
	}
	switch w.Offload {
	case OffloadIP:
		add(CostOffloadIPStd)
	case OffloadUDP:
		add(CostOffloadUDPStd)
	case OffloadTCP:
		add(CostOffloadTCPStd)
	}
	return sqrt(varsum)
}

func sqrt(v float64) float64 {
	// Newton iteration; avoids importing math for one call site and
	// keeps the package dependency-free beyond sim.
	if v <= 0 {
		return 0
	}
	x := v
	for i := 0; i < 40; i++ {
		x = 0.5 * (x + v/x)
	}
	return x
}

// TimePerPacket returns the wall time one core needs per packet at
// frequency f.
func (w Workload) TimePerPacket(f Freq) sim.Duration {
	ns := w.Cycles()/float64(f)*1e9 + w.MemStallNS
	return sim.FromNanoseconds(ns)
}

// PPS returns the packet rate one core sustains at frequency f,
// ignoring line-rate limits.
func (w Workload) PPS(f Freq) float64 {
	return 1e9 / (w.Cycles()/float64(f)*1e9 + w.MemStallNS)
}

// PPSPredictionStd returns the ± on the PPS prediction from the cycle
// stddev (first-order propagation), used to report "10.47±0.18 Mpps".
func (w Workload) PPSPredictionStd(f Freq) float64 {
	c := w.Cycles()
	s := w.CyclesStd()
	pps := w.PPS(f)
	return pps * s / c
}

// String implements fmt.Stringer.
func (w Workload) String() string {
	return fmt.Sprintf("%s (%.1f cycles/pkt)", w.Name, w.Cycles())
}

// Named workloads used throughout the evaluation.

// SimpleUDPWorkload is §5.2's comparison workload: minimum-sized UDP
// packets with 256 varying source IPs (one randomized field, IP
// checksum not offloaded in the comparison). MoonGen reaches 10 GbE
// line rate with it at 1.5 GHz ⇒ ~100.8 cycles/pkt.
var SimpleUDPWorkload = Workload{
	Name:       "simple-udp-256-src-ips",
	RandFields: 1,
	// 100.8 = 76.0 (IO) + 9.1 (modify) + 15.7 (rand field): the rand
	// cost here is slightly below Table 2's 32.3 because the script
	// randomizes over only 256 addresses with a cheap mask.
	ExtraCycles: 100.8 - CostPacketIO - CostModify - RandFieldCycles(1),
}

// PktgenDPDKWorkload models Pktgen-DPDK 2.5.1 on the same §5.2 task.
// Its complex main loop adds a frequency-independent component; the
// two-point fit to the paper's measurements (14.12 Mpps at 1.5 GHz,
// line rate reached at 1.7 GHz) gives ~46 cycles + ~40 ns per packet.
var PktgenDPDKWorkload = Workload{
	Name:        "pktgen-dpdk-simple-udp",
	ExtraCycles: 46.2 - CostPacketIO,
	MemStallNS:  40.0,
}

// HeavyRandomWorkload is §5.3/§5.6.3's stress workload: random payload
// plus random source/destination addresses and ports, 8 random numbers
// per packet, writing beyond one cacheline, with IP checksum offload.
// Predicted 229.2±3.9 cycles/pkt ⇒ 10.47±0.18 Mpps at 2.4 GHz;
// the paper measured 10.3 Mpps.
var HeavyRandomWorkload = Workload{
	Name:            "heavy-random-8-fields",
	RandFields:      8,
	ExtraCachelines: 1,
	Offload:         OffloadIP,
	// Table 1/2 components: 76.0 + 15.0 + 133.5 + 15.2 = 239.7. The
	// paper's own sum is 229.2±3.9: their modification cost is partly
	// contained in the Table 2 rand numbers. The -10.5 correction
	// documents that overlap explicitly.
	ExtraCycles: -10.5,
}
