package telemetry

import (
	"repro/internal/fault"
	"repro/internal/flow"
	"repro/internal/mempool"
	"repro/internal/nic"
	"repro/internal/sim"
)

// PortProbe samples a port's statistics registers through
// Port.CounterSnapshot, the surface the end-of-run reports read. The
// snapshot event runs on the port's engine, so it sees every packet
// counted before it at its instant. The model columns are
// functions of the modeled wire; rx_pool_avail is the port's free
// receive buffers (Port.RxPoolAvail), a diagnostic (it varies with
// drain batching). It reads 0 on a port that never received into a
// payload queue: a TX-only port, or one whose receivers are all
// count-only (core.PollRx with no payload hook).
func PortProbe(name string, p *nic.Port) Probe {
	return Probe{Name: name, Cols: []Column{
		{Name: "tx_pkts", Rule: RuleSum, Sample: func() uint64 { return p.CounterSnapshot().TxPackets }},
		{Name: "tx_bytes", Rule: RuleSum, Sample: func() uint64 { return p.CounterSnapshot().TxBytes }},
		{Name: "rx_pkts", Rule: RuleSum, Sample: func() uint64 { return p.CounterSnapshot().RxPackets }},
		{Name: "rx_bytes", Rule: RuleSum, Sample: func() uint64 { return p.CounterSnapshot().RxBytes }},
		{Name: "rx_crc_errors", Rule: RuleSum, Sample: func() uint64 { return p.CounterSnapshot().RxCRCErrors }},
		{Name: "rx_missed", Rule: RuleSum, Sample: func() uint64 { return p.CounterSnapshot().RxMissed }},
		{Name: "rx_pool_avail", Rule: RuleSum, Diag: true, Sample: func() uint64 { return uint64(p.RxPoolAvail()) }},
	}}
}

// FlowCol names one tracked flow for FlowProbe.
type FlowCol struct {
	// Label is the flow's column prefix within the probe ("f0" yields
	// "flow.f0.rx", ...). Probe authoring rule applies.
	Label string
	// Key identifies the flow in the tracker.
	Key flow.Key
}

// FlowProbe samples the flow tracker: tracker-level columns first —
// live flows (flows that have received at least one packet), the flat
// table's load factor (permille) and its longest probe chain — then,
// per named flow, received/lost/reordered/duplicate counts plus
// latency quantiles (p50/p99, integer nanoseconds) when the tracker
// records latency. Each named flow's stats struct is force-created at
// registration and bound directly, so sampling is a field read
// regardless of arrival order; a force-created flow has Received == 0
// and does not count as live.
//
// Sharding: a flow is wholly owned by one shard (the generators
// partition flows), so every other shard samples zeros for it and
// RuleSum reproduces the owning shard's values exactly — per-flow
// counts and the live count both survive the sum. The table columns
// are diagnostics under RuleMax: load factor and probe length are
// properties of each shard's private table, not additive quantities.
// The quantile columns are diagnostics too: flow accounting is
// invariant in the core count, but wire timing legitimately differs
// between one shared wire and k private ones (the same line the
// report-level invariance tests draw), so latency columns would break
// the model series' cross-core byte-identity. Their guards handle the
// lazy histogram contract — a flow that never carries a stamped
// timestamp never allocates a histogram, and its quantiles read 0
// exactly as an empty histogram's did.
func FlowProbe(tr *flow.Tracker, flows []FlowCol) Probe {
	cols := []Column{
		{Name: "live", Rule: RuleSum, Sample: tr.ActiveFlows},
		{Name: "table_load_pm", Rule: RuleMax, Diag: true, Sample: func() uint64 {
			used, capacity := tr.TableLoad()
			if capacity == 0 {
				return 0
			}
			return uint64(used) * 1000 / uint64(capacity)
		}},
		{Name: "table_probe_max", Rule: RuleMax, Diag: true, Sample: func() uint64 {
			return uint64(tr.MaxProbe())
		}},
	}
	for _, fc := range flows {
		fs := tr.Flow(fc.Key)
		cols = append(cols,
			Column{Name: fc.Label + ".rx", Rule: RuleSum, Sample: func() uint64 { return fs.Received }},
			Column{Name: fc.Label + ".lost", Rule: RuleSum, Sample: func() uint64 { return fs.Lost }},
			Column{Name: fc.Label + ".reordered", Rule: RuleSum, Sample: func() uint64 { return fs.Reordered }},
			Column{Name: fc.Label + ".dup", Rule: RuleSum, Sample: func() uint64 { return fs.Duplicates }},
		)
		if tr.LatencyEnabled() {
			quantile := func(p float64) uint64 {
				if fs.Latency == nil || fs.Latency.Count() == 0 {
					return 0
				}
				return uint64(int64(fs.Latency.Percentile(p)) / int64(sim.Nanosecond))
			}
			cols = append(cols,
				Column{Name: fc.Label + ".lat_p50_ns", Rule: RuleSum, Diag: true, Sample: func() uint64 { return quantile(50) }},
				Column{Name: fc.Label + ".lat_p99_ns", Rule: RuleSum, Diag: true, Sample: func() uint64 { return quantile(99) }},
			)
		}
	}
	return Probe{Name: "flow", Cols: cols}
}

// FaultProbe samples a fault injector's lifecycle counters. The merge
// rules encode the fault layer's sharding contract: a plan is stated
// in global sim time and every shard executes the identical plan, so
// `fired` is a per-plan quantity (RuleMax reproduces the single-core
// value exactly), while `frames_dropped` counts each shard's own
// traffic lost at the fault boundary (RuleSum, invariant because the
// global slot grid partitions across shards). Recovery latency and the
// open-window count are diagnostics — properties of the plan's
// execution, recorded for soak observability.
func FaultProbe(in *fault.Injector) Probe {
	return Probe{Name: "fault", Cols: []Column{
		{Name: "fired", Rule: RuleMax, Sample: in.Fired},
		{Name: "frames_dropped", Rule: RuleSum, Sample: in.FramesDropped},
		{Name: "active", Rule: RuleMax, Diag: true, Sample: in.ActiveFaults},
		{Name: "recovery_ns", Rule: RuleMax, Diag: true, Sample: in.MaxRecoveryNS},
	}}
}

// EngineProbe samples the scheduler's internal counters. All columns
// are diagnostics: event counts and wheel mechanics depend on how work
// is grouped into events, which is exactly what batch size and shard
// count change.
func EngineProbe(eng *sim.Engine) Probe {
	return Probe{Name: "engine", Cols: []Column{
		{Name: "events", Rule: RuleSum, Diag: true, Sample: eng.EventsProcessed},
		{Name: "sched_promotions", Rule: RuleSum, Diag: true, Sample: func() uint64 {
			return eng.SchedStats().WheelPromotions
		}},
		{Name: "sched_max_depth", Rule: RuleMax, Diag: true, Sample: func() uint64 {
			return uint64(eng.SchedStats().MaxSlotDepth)
		}},
		{Name: "pending", Rule: RuleSum, Diag: true, Sample: func() uint64 {
			return uint64(eng.Pending())
		}},
	}}
}

// PoolProbe samples a mempool's free-buffer count — occupancy
// diagnostics for soak runs (a leak shows as a monotonic drain).
func PoolProbe(name string, p *mempool.Pool) Probe {
	return Probe{Name: name, Cols: []Column{
		{Name: "avail", Rule: RuleSum, Diag: true, Sample: func() uint64 {
			return uint64(p.Available())
		}},
	}}
}
