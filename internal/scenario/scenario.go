// Package scenario is the registry-driven traffic-scenario subsystem —
// the Go analogue of MoonGen's userscripts. The paper's core pitch is
// that arbitrary traffic scenarios are small scripts on top of one fast
// datapath; here a scenario is a type implementing Scenario, configured
// by a declarative Spec, running against a shared testbed Env that
// handles the boilerplate every script used to duplicate (engine,
// ports, duplex link, optional DuT, mempools, stats reporters).
//
// Scenarios self-register in a global registry (Register, usually from
// init). cmd/moongen, the spec files and the tests all drive scenarios
// through Execute, so adding a workload is one new file that registers
// one new type.
package scenario

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Pattern selects the inter-departure process of a load scenario.
type Pattern string

// The canonical patterns. LineRate floods the queue unshaped; CBR uses
// the hardware shaper (§7.2); Poisson and Bursts use the paper's
// CRC-gap software rate control (§8); SoftCBR pushes packets on an
// exact software-timed grid with no modeled hardware imprecision — the
// fully deterministic reference stream the multicore invariance checks
// are stated against.
const (
	PatternLineRate Pattern = "linerate"
	PatternCBR      Pattern = "cbr"
	PatternPoisson  Pattern = "poisson"
	PatternBursts   Pattern = "bursts"
	PatternSoftCBR  Pattern = "softcbr"
)

// Flow describes one traffic flow declaratively: L3/L4 protocol,
// address ranges, ports and an optional per-flow rate.
type Flow struct {
	// Name labels the flow in reports ("fg", "bg", ...).
	Name string
	// L4 is the transport: "udp" (default) or "tcp".
	L4 string
	// SrcIP is the base source address; SrcIPCount > 1 randomizes the
	// low bits over that many addresses (Listing 2's 256-address
	// randomization).
	SrcIP      proto.IPv4
	SrcIPCount int
	DstIP      proto.IPv4
	SrcPort    uint16
	DstPort    uint16
	// RateMpps is the flow's hardware-shaped rate; 0 inherits the
	// scenario rate (or line rate).
	RateMpps float64
	// PktSize overrides the spec frame size for this flow (without FCS).
	PktSize int
	// TOS marks the IPv4 TOS/DSCP byte (QoS scenarios).
	TOS uint8
}

// SizeShare is one component of a frame-size mix.
type SizeShare struct {
	// Size is the frame size without FCS.
	Size int
	// Weight is the relative share of packets at this size.
	Weight int
}

// IMIXMix is the classic simple-IMIX distribution (7:4:1 at 64, 594 and
// 1518 bytes on the wire — sizes here exclude the 4-byte FCS).
var IMIXMix = []SizeShare{{Size: 60, Weight: 7}, {Size: 590, Weight: 4}, {Size: 1514, Weight: 1}}

// Spec is the declarative scenario configuration: what cmd/moongen
// exposes as flags and what DefaultSpec pre-populates per scenario.
type Spec struct {
	// RateMpps is the aggregate target rate; 0 means line rate where
	// applicable.
	RateMpps float64
	// PktSize is the frame size without FCS (default 60 = 64 on wire).
	PktSize int
	// Mix, when non-empty, draws per-packet sizes from this weighted
	// mix instead of using the fixed PktSize.
	Mix []SizeShare
	// Pattern is the inter-departure process.
	Pattern Pattern
	// Burst is the burst size for PatternBursts.
	Burst int
	// Batch is the TX-loop burst size: how many packets move through
	// the batched datapath (mempool cache → BufArray → descriptor
	// ring) as one unit of work. Default 32; 1 reproduces per-packet
	// processing. The emission schedule is invariant in Batch — the
	// knob trades host-side event overhead, never timing. Scenarios
	// that pace one packet per grid tick ignore it: softcbr and every
	// slot-grid scenario (see Spec.slots). qos (fixed 63-frame bursts,
	// the example script's bufArray) and imix (one frame per burst)
	// ignore it too.
	Batch int
	// Runtime is the simulated run time.
	Runtime sim.Duration
	// Seed seeds the simulation; equal seeds reproduce runs exactly.
	Seed int64
	// Probes is the number of hardware-timestamped latency probes for
	// latency-measuring scenarios (0 = no probing).
	Probes int
	// Samples is the sample count for distribution measurements
	// (inter-arrival histograms).
	Samples int
	// Steps is the number of sweep points for sweeping scenarios.
	Steps int
	// Flows declares the traffic flows; empty means one default flow.
	Flows []Flow
	// Cores is the number of modeled cores. Above 1 the scenario runs
	// as that many independent deterministic engine shards on real
	// goroutines — one testbed (port pair, mempools, tasks) per core,
	// the paper's §5 execution model — and the per-shard reports are
	// merged. Rate budgets (RateMpps, per-flow rates) and probe/sample
	// budgets are split across shards, so for deterministic patterns
	// the merged transmit totals are invariant in Cores. Intended for
	// the load scenarios; additive report rows are summed on merge.
	Cores int
	// grid is this spec's slice of the global slot grid, set by
	// ShardSpec; read it through slots.
	grid slotGrid
	// ChurnFlows is the churn scenario's live-flow working set: the
	// number of concurrently active flows in each generation. Shard
	// counts must divide it so generations partition evenly.
	ChurnFlows int
	// ChurnLife is the churn scenario's flow lifetime in packets: a
	// flow departs after sending this many and its slot is taken by a
	// fresh flow (a new 5-tuple) in the next generation.
	ChurnLife int
	// UseDuT routes traffic through the simulated Open vSwitch
	// forwarder (generator → DuT → sink) instead of a direct cable.
	UseDuT bool
	// TelemetryInterval, when > 0, enables the telemetry recorder on
	// the Env testbed: windowed counter snapshots every interval of
	// simulated time, returned in Report.Telemetry. Intervals that
	// divide Runtime give exactly Runtime/interval windows. See
	// internal/telemetry for the determinism contract.
	TelemetryInterval sim.Duration
	// TelemetryStream, when set alongside TelemetryInterval, receives
	// every telemetry row as it is recorded (live streaming for long
	// soaks). Sharded runs ignore it — per-shard rows are partial;
	// the merged series in Report.Telemetry is the run's output.
	TelemetryStream io.Writer
	// TelemetryJSONL switches the stream to JSONL.
	TelemetryJSONL bool
	// TelemetryDiag includes diagnostic columns (engine internals,
	// pool occupancy) in the stream. Diagnostic values vary with Batch
	// and Cores by design; the default stream carries only model
	// columns, which are invariant.
	TelemetryDiag bool
	// Faults is the deterministic fault plan injected into the run
	// (link flaps, DuT stalls, queue pauses, clock steps — see
	// internal/fault). The plan is stated in global sim time, so a
	// sharded run applies the identical plan to every shard's private
	// testbed: fault events are global, which is what keeps the merged
	// model telemetry invariant in Cores. Execute validates the plan
	// fail-closed before the run starts.
	Faults fault.Plan
}

// withDefaults fills the zero fields every scenario relies on.
func (s Spec) withDefaults() Spec {
	if s.PktSize <= 0 {
		s.PktSize = 60
	}
	if s.Runtime <= 0 {
		s.Runtime = 50 * sim.Millisecond
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Pattern == "" {
		s.Pattern = PatternLineRate
	}
	if s.Burst <= 0 {
		s.Burst = 16
	}
	if s.Batch <= 0 {
		s.Batch = core.DefaultTxBatch
	}
	if s.Cores < 1 {
		s.Cores = 1
	}
	return s
}

// DefaultFlow is the flow used when a Spec declares none: the plain
// UDP stream of the paper's Listing 2.
func DefaultFlow() Flow {
	return Flow{
		Name:       "flow0",
		L4:         "udp",
		SrcIP:      proto.MustIPv4("10.0.0.1"),
		SrcIPCount: 256,
		DstIP:      proto.MustIPv4("10.1.0.1"),
		SrcPort:    1234,
		DstPort:    5678,
	}
}

// EffectiveFlows returns the spec's flows, defaulting to the single
// canonical flow.
func (s Spec) EffectiveFlows() []Flow {
	if len(s.Flows) > 0 {
		return s.Flows
	}
	return []Flow{DefaultFlow()}
}

// SingleCoreOnly marks scenarios that must not be sharded with
// Spec.Cores > 1 — typically wrappers that sweep parameters
// internally, whose per-step rows would be meaninglessly summed by the
// report merge. Execute rejects Cores > 1 for them with the returned
// reason instead of printing silently wrong numbers.
type SingleCoreOnly interface {
	SingleCoreOnly() string
}

// SlotPartitioned marks the slot-grid scenarios, whose global slot j
// carries flow j mod n of a population of n flows. Shard i of k owns
// the slots j ≡ i (mod k), so every flow lives wholly in one shard —
// and the merged per-flow counts equal the one-core counts — only when
// k divides n. Population returns n and what it is called.
type SlotPartitioned interface {
	Population(s Spec) (n int, what string)
}

// CheckPartition rejects a core count that would split a flow of a
// SlotPartitioned scenario across shards.
func CheckPartition(sc Scenario, s Spec) error {
	p, ok := sc.(SlotPartitioned)
	if !ok || s.Cores <= 1 {
		return nil
	}
	if n, what := p.Population(s); n%s.Cores != 0 {
		return fmt.Errorf("cores: %d does not divide the %s (%d) for scenario %q — every flow must live wholly in one shard", s.Cores, what, n, sc.Name())
	}
	return nil
}

// Scenario is one runnable traffic scenario. Implementations register
// themselves with Register and receive a fully built Env in Run.
type Scenario interface {
	// Name is the registry key (what `moongen <name>` selects).
	Name() string
	// Describe is the one-line help text for `moongen list`.
	Describe() string
	// DefaultSpec returns the scenario's canonical configuration.
	DefaultSpec() Spec
	// Run executes the scenario to completion and returns its report.
	Run(env *Env) (*Report, error)
}

// Row is one scenario-specific result line (a metric with a unit).
type Row struct {
	Label string
	Value float64
	Unit  string
}

// FlowReport is the per-flow slice of a report.
type FlowReport struct {
	Name      string
	TxPackets uint64
	RxPackets uint64
	// Lost / Reordered / Duplicates are the receiver-side sequence
	// verdicts from the flow tracker (zero when the scenario does not
	// track sequences).
	Lost       uint64
	Reordered  uint64
	Duplicates uint64
	// LostDuringFault / LostInRecovery split Lost across a fault
	// boundary when the scenario attributes losses to a fault window
	// (overload-recover): during = slots rejected at the fault's
	// bottleneck while it was active, recovery = the remainder of the
	// tracker's sequence gaps. Zero when the scenario does not
	// attribute losses.
	LostDuringFault uint64
	LostInRecovery  uint64
	// Latency holds the flow's probe histogram when measured.
	Latency *stats.Histogram
}

// Report is a scenario's result: the NIC-counter baseline every
// scenario shares plus scenario-specific rows, per-flow slices and an
// optional latency histogram.
type Report struct {
	Scenario string
	Window   sim.Duration

	TxPackets   uint64
	TxBytes     uint64
	RxPackets   uint64
	RxBytes     uint64
	RxCRCErrors uint64
	RxMissed    uint64

	// RxMpps and RxGbpsWire are receive rates over the window; the
	// wire rate includes FCS, preamble, SFD and IFG.
	RxMpps     float64
	RxGbpsWire float64

	// Latency is the probe histogram when the scenario measures it.
	Latency    *stats.Histogram
	LostProbes uint64

	Flows []FlowReport
	Rows  []Row
	Notes []string

	// Telemetry is the windowed time series recorded when
	// Spec.TelemetryInterval is set (merged across shards for sharded
	// runs); nil for scenarios that bypass the Env testbed.
	Telemetry *telemetry.Series
}

// AddRow appends a scenario-specific metric.
func (r *Report) AddRow(label string, value float64, unit string) {
	r.Rows = append(r.Rows, Row{Label: label, Value: value, Unit: unit})
}

// Print renders the report.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "scenario=%s runtime=%.1fms\n", r.Scenario, r.Window.Seconds()*1e3)
	if r.Window > 0 {
		fmt.Fprintf(w, "  rx %.3f Mpps (%.2f Gbit/s wire), %d packets, crc-dropped %d, missed %d\n",
			r.RxMpps, r.RxGbpsWire, r.RxPackets, r.RxCRCErrors, r.RxMissed)
	}
	if r.Latency != nil && r.Latency.Count() > 0 {
		q1, q2, q3 := r.Latency.Quartiles()
		fmt.Fprintf(w, "  latency over %d probes (lost %d): min %.1f ns, quartiles %.1f / %.1f / %.1f ns, max %.1f ns\n",
			r.Latency.Count(), r.LostProbes,
			r.Latency.Min().Nanoseconds(),
			q1.Nanoseconds(), q2.Nanoseconds(), q3.Nanoseconds(),
			r.Latency.Max().Nanoseconds())
	}
	for _, f := range r.Flows {
		fmt.Fprintf(w, "  flow %-8s tx %d rx %d", f.Name, f.TxPackets, f.RxPackets)
		if f.Lost != 0 || f.Reordered != 0 || f.Duplicates != 0 {
			fmt.Fprintf(w, " lost %d reordered %d dup %d", f.Lost, f.Reordered, f.Duplicates)
		}
		if f.LostDuringFault != 0 || f.LostInRecovery != 0 {
			fmt.Fprintf(w, " lost-during-fault %d lost-in-recovery %d", f.LostDuringFault, f.LostInRecovery)
		}
		if f.Latency != nil && f.Latency.Count() > 0 {
			q1, q2, q3 := f.Latency.Quartiles()
			fmt.Fprintf(w, "  latency quartiles %.1f / %.1f / %.1f µs (%d probes)",
				q1.Microseconds(), q2.Microseconds(), q3.Microseconds(), f.Latency.Count())
		}
		fmt.Fprintln(w)
	}
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-34s %12.4g %s\n", row.Label, row.Value, row.Unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}
