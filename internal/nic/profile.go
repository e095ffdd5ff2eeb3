// Package nic models the commodity Intel NICs the paper builds on:
// ports with multiple hardware transmit/receive queues, descriptor
// rings, per-queue hardware rate limiters, PTP timestamping latches,
// checksum offload engines, CRC validation with early drop, and the
// documented per-chip limits (FIFO sizes, timestamp granularities, the
// XL710's bandwidth caps, the >9 Mpps rate-control anomaly, the 33-byte
// minimum wire frame and the 15.6 Mpps runt-frame limit).
//
// The datapath works like a poll-mode driver: a port pulls its due
// arrivals when its receive state is observed, sent buffers return to
// their pools lazily (mempool.Pool.FreeAt), and the MAC scheduler runs
// its next evaluations in the same event up to the engine's next event
// (sim.Engine.QuietUntil), so no frame costs an event of its own. An
// armed receive line (Port.ArmRx) takes one at the next valid arrival.
package nic

import (
	"repro/internal/wire"
)

// Profile is a chip model: every number here is from the paper or the
// datasheets it cites ([11] 82580, [12] 82599, [13] X540, [15] XL710).
type Profile struct {
	Name  string
	Speed wire.Speed

	// MaxQueues is the number of RX and TX queues per port (128 on
	// 82599/X540, §3.3).
	MaxQueues int

	// TxFIFOBytes is the on-chip transmit FIFO: 160 kB on the X540,
	// "which can store 128 µs of data at 10 GbE" and conceals JIT/GC
	// pause times (§3.2).
	TxFIFOBytes int

	// RxFIFOBytes is the on-chip receive FIFO.
	RxFIFOBytes int

	// TimestampTickNS is the PTP timestamp register granularity: the
	// 82599's timer increments every two 6.4 ns cycles (12.8 ns), the
	// X540's every cycle (6.4 ns), the 82580's every 64 ns (§6.1).
	TimestampTickNS float64

	// TimestampPhaseStepNS: on the 82580 timestamps are of the form
	// n·64 ns + k·8 ns with k constant per reset; 8 here, 0 elsewhere.
	TimestampPhaseStepNS float64

	// HWRateControl reports per-queue hardware CBR shaping support.
	HWRateControl bool

	// RateAnomalyPPS is the per-queue packet rate above which the
	// hardware rate limiter shows "unpredictable non-linear behavior"
	// (§7.5, ~9 Mpps on X520/X540). Zero disables the anomaly.
	RateAnomalyPPS float64

	// TimestampAllRx: the 82580 can timestamp every received packet
	// at line rate by prepending the timestamp to the packet buffer
	// (§6), which is what makes 1 GbE inter-arrival measurement work.
	TimestampAllRx bool

	// MinWireFrame is the smallest frame the MAC will emit, measured
	// in wire bytes including preamble, SFD and IFG: 33 bytes (§8.1).
	MinWireFrame int

	// RuntMaxPPS is the maximum packet rate when emitting sub-minimum
	// frames: 15.6 Mpps on X540 and 82599, "only 5% above the line
	// rate for packets with the regular minimal size" (§8.1).
	RuntMaxPPS float64

	// PTPMinUDPSize: UDP PTP packets smaller than 80 B are not
	// timestamped; layer-2 PTP packets have no limit (§6.4).
	PTPMinUDPSize int

	// XL710 first-generation 40 GbE restrictions (§5.4): a per-port
	// packet-rate ceiling that prevents line rate at ≤128 B, and
	// aggregate dual-port caps (42 Mpps / 50 Gbit/s, MAC-layer bound).
	PortMaxPPS  float64
	DualMaxPPS  float64
	DualMaxBps  float64
	PCIeGen3x8  bool // 63 Gbit/s PCIe ceiling shared by both ports
	DriftPPMMax float64
}

// Chip profiles used across the paper's experiments.
var (
	// Chip82599 is the Intel 82599 10 GbE controller (fiber testbed).
	Chip82599 = Profile{
		Name:            "82599",
		Speed:           wire.Speed10G,
		MaxQueues:       128,
		TxFIFOBytes:     160 << 10,
		RxFIFOBytes:     512 << 10,
		TimestampTickNS: 12.8, // timer increments every 2 cycles
		HWRateControl:   true,
		RateAnomalyPPS:  9e6,
		MinWireFrame:    33,
		RuntMaxPPS:      15.6e6,
		PTPMinUDPSize:   80,
		DriftPPMMax:     35,
	}

	// ChipX540 is the Intel X540 10GBASE-T controller, the paper's
	// workhorse NIC.
	ChipX540 = Profile{
		Name:            "X540",
		Speed:           wire.Speed10G,
		MaxQueues:       128,
		TxFIFOBytes:     160 << 10,
		RxFIFOBytes:     512 << 10,
		TimestampTickNS: 6.4,
		HWRateControl:   true,
		RateAnomalyPPS:  9e6,
		MinWireFrame:    33,
		RuntMaxPPS:      15.6e6,
		PTPMinUDPSize:   80,
		DriftPPMMax:     35,
	}

	// Chip82580 is the Intel 82580 GbE controller used for
	// inter-arrival measurements: it timestamps all received packets
	// in line rate.
	Chip82580 = Profile{
		Name:                 "82580",
		Speed:                wire.Speed1G,
		MaxQueues:            8,
		TxFIFOBytes:          40 << 10,
		RxFIFOBytes:          64 << 10,
		TimestampTickNS:      64,
		TimestampPhaseStepNS: 8,
		HWRateControl:        false,
		TimestampAllRx:       true,
		MinWireFrame:         33,
		RuntMaxPPS:           1.6e6,
		PTPMinUDPSize:        80,
		DriftPPMMax:          35,
	}

	// ChipXL710 is the first-generation dual-port 40 GbE controller
	// with its §5.4 hardware bottlenecks.
	ChipXL710 = Profile{
		Name:            "XL710",
		Speed:           wire.Speed40G,
		MaxQueues:       384,
		TxFIFOBytes:     512 << 10,
		RxFIFOBytes:     1024 << 10,
		TimestampTickNS: 6.4,
		HWRateControl:   false, // MoonGen HW features not supported here
		MinWireFrame:    33,
		RuntMaxPPS:      42e6,
		PTPMinUDPSize:   80,
		PortMaxPPS:      30e6,
		DualMaxPPS:      42e6,
		DualMaxBps:      50e9,
		PCIeGen3x8:      true,
		DriftPPMMax:     35,
	}
)
