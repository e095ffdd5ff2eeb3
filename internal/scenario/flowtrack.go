package scenario

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/mempool"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/wire"
)

// This file holds the flow-tracked scenarios: sequence-stamped
// multi-flow streams on the deterministic software grid, analyzed on
// the receive side by a flow.Tracker through the batched RX datapath.
//
// Both scenarios are stated per *global slot*: the aggregate stream is
// a grid of transmit slots at the aggregate tick; slot j carries flow
// j mod F with flow-local sequence j div F, and every per-slot
// decision (overload admission, reorder displacement, duplication) is
// a pure function of j. Shard i of k owns slots j ≡ i (mod k) — the
// same composition softcbr uses — so as long as k divides F every
// flow lives wholly in one shard and the merged per-flow loss/reorder/
// duplicate counts are exactly the single-core counts, at any batch
// size. That is the RX acceptance property mirroring the TX batch
// invariance pinned in PR 3.

// FlowSet returns n plain UDP flows with distinct destination ports —
// the canonical flow declaration of the flow-tracked scenarios.
func FlowSet(n int) []Flow {
	out := make([]Flow, n)
	for i := range out {
		out[i] = Flow{
			Name:    fmt.Sprintf("f%d", i),
			L4:      "udp",
			SrcIP:   proto.MustIPv4("10.0.0.1"),
			DstIP:   proto.MustIPv4("10.1.0.1"),
			SrcPort: 1234,
			DstPort: uint16(5000 + i),
		}
	}
	return out
}

// flowSlots implements SlotPartitioned for the scenarios that embed
// it: global slot j carries declared flow j mod len(flows).
type flowSlots struct{}

func (flowSlots) Population(s Spec) (int, string) { return len(s.EffectiveFlows()), "flow count" }

// trackerKey returns the flow.Key the tracker will observe for a
// declared flow (the flow-tracked generators do not randomize source
// addresses, so the key is exact).
func trackerKey(f Flow) flow.Key {
	return flow.Key{
		Proto: proto.IPProtoUDP,
		Src:   f.SrcIP, Dst: f.DstIP,
		SrcPort: f.SrcPort, DstPort: f.DstPort,
	}
}

// admission is the deterministic overload model: an ideal bufferless
// server draining at line rate. Offered slots arrive every tick; the
// server needs frameWire per frame; slot j is admitted exactly when
// the virtual service count floor(j·tick/frameWire) advances. This is
// the tail-drop pattern of a zero-buffer FIFO in exact integer
// arithmetic — a pure function of the global slot index, which is what
// makes per-flow loss identical across core counts (each shard's wire
// is private, so the shared bottleneck must be modeled, not emergent).
type admission struct {
	tick, frameWire int64
}

func (a admission) admitted(j uint64) bool {
	if a.tick >= a.frameWire || j == 0 {
		return true // at or below line rate nothing is dropped
	}
	t := int64(j) * a.tick
	return t/a.frameWire > (t-a.tick)/a.frameWire
}

// flowTxConfig parameterizes the shared slot-grid transmit task.
type flowTxConfig struct {
	// admit, when non-nil, gates each global slot (loss-overload).
	admit func(j uint64) bool
	// slotTime, when non-nil, gives slot j's departure offset from the
	// run start — a pure, monotone function of the global slot index.
	// It replaces the uniform interval/phase grid, which is how a
	// scenario models a time-varying offered rate (overload-recover's
	// ramp) while keeping every shard on the exact same global grid.
	slotTime func(j uint64) sim.Duration
	// stampSeq maps a flow-local sequence to the stamped sequence
	// (reorder displacement); nil is identity.
	stampSeq func(s uint64) uint64
	// dupEvery duplicates every dupEvery-th packet of each flow
	// (0 = none).
	dupEvery uint64
}

// flowTxResult carries the per-flow transmit accounting.
type flowTxResult struct {
	sent     []uint64 // wire packets per flow, duplicates included
	overload []uint64 // slots dropped by the admission gate, per flow
	tx       *core.PushTx
}

// launchFlowTx starts the slot-grid transmit task for this shard's
// slice of the global grid. Every slot advances its flow's sequence
// number whether or not the packet is admitted, so the receiver
// observes admission drops as sequence gaps — receiver-side loss
// attribution, the paper's §6 loss-under-overload measurement per
// flow.
func launchFlowTx(env *Env, cfg flowTxConfig) (*flowTxResult, error) {
	spec := env.Spec
	if spec.UseDuT {
		// The DuT bed starts its own sink drain, which would compete
		// with the flow sink for the same queue and corrupt the loss
		// attribution (drained packets would read as sequence gaps).
		return nil, fmt.Errorf("flow-tracked scenario needs the direct duplex testbed, not the DuT path")
	}
	flows := spec.EffectiveFlows()
	F := len(flows)
	g, err := spec.slots()
	if err != nil {
		return nil, err
	}

	// One prefilled pool and payload offset per flow; the per-packet
	// work is one sequence stamp.
	pools := make([]*mempool.Pool, F)
	sizes := make([]int, F)
	for fi, f := range flows {
		sizes[fi] = spec.FlowSize(f)
		if sizes[fi] < proto.EthHdrLen+proto.IPv4HdrLen+proto.UDPHdrLen+flow.StampLen {
			return nil, fmt.Errorf("flow-tracked scenario: frame size %d cannot carry the %d-byte sequence stamp", sizes[fi], flow.StampLen)
		}
		pools[fi] = env.NewFlowPool(f, sizes[fi], 4096)
	}
	const payloadOff = proto.EthHdrLen + proto.IPv4HdrLen + proto.UDPHdrLen

	tx := &core.PushTx{Queue: env.TX().GetTxQueue(0), Schedule: g.at, Batch: spec.Batch}
	if cfg.slotTime != nil {
		tx.Schedule = func(n uint64) sim.Duration { return cfg.slotTime(g.slot(n)) }
	}
	res := &flowTxResult{sent: make([]uint64, F), overload: make([]uint64, F), tx: tx}
	var stamped uint64
	stamp := func(m *mempool.Mbuf, now sim.Time) {
		flow.Stamp(m.Payload()[payloadOff:], stamped, now)
	}
	tx.Slot = func(n uint64) {
		j := g.slot(n)
		fi, s := j%uint64(F), j/uint64(F)
		if cfg.admit != nil && !cfg.admit(j) {
			res.overload[fi]++
			return
		}
		stamped = s
		if cfg.stampSeq != nil {
			stamped = cfg.stampSeq(s)
		}
		if !tx.Send(pools[fi], sizes[fi], stamp) {
			return
		}
		res.sent[fi]++
		if cfg.dupEvery > 0 && s%cfg.dupEvery == 0 && tx.Send(pools[fi], sizes[fi], stamp) {
			res.sent[fi]++
		}
	}
	env.App().LaunchTask("flow-tx", tx.Run)
	return res, nil
}

// collectFlows fills the report's per-flow slices from the transmit
// accounting and the receiver-side tracker.
func collectFlows(rep *Report, spec Spec, res *flowTxResult, tr *flow.Tracker) {
	for fi, f := range spec.EffectiveFlows() {
		fr := FlowReport{Name: f.Name, TxPackets: res.sent[fi]}
		if fs, ok := tr.Lookup(trackerKey(f)); ok {
			fr.RxPackets = fs.Received
			fr.Lost = fs.Lost
			fr.Reordered = fs.Reordered
			fr.Duplicates = fs.Duplicates
			if fs.Latency != nil && fs.Latency.Count() > 0 {
				fr.Latency = fs.Latency
			}
		}
		rep.Flows = append(rep.Flows, fr)
	}
	if res.tx.Failed > 0 {
		rep.AddRow("tx slots lost to pool/ring pressure", float64(res.tx.Failed), "slots")
	}
	if tr.Unparsed > 0 {
		rep.AddRow("rx frames without a flow key", float64(tr.Unparsed), "packets")
	}
}

// lossOverloadScenario reproduces §6's loss-under-overload observation
// with per-flow attribution: the offered slot grid exceeds line rate,
// the deterministic bufferless admission gate tail-drops the excess,
// and the receiver's flow tracker reports every drop as sequence loss
// on the flow it hit.
type lossOverloadScenario struct{ flowSlots }

func (lossOverloadScenario) Name() string { return "loss-overload" }
func (lossOverloadScenario) Describe() string {
	return "overload loss per flow: >line-rate slot grid, deterministic tail drop, rx sequence gaps (§6)"
}

func (lossOverloadScenario) DefaultSpec() Spec {
	return Spec{
		Pattern:  PatternSoftCBR, // sharded on the softcbr grid
		RateMpps: 20,             // 10GbE 64B line rate is 14.88 Mpps
		PktSize:  60,
		Runtime:  20 * sim.Millisecond,
		Flows:    FlowSet(4),
	}
}

func (lossOverloadScenario) Run(env *Env) (*Report, error) {
	spec := env.Spec
	g, err := spec.slots()
	if err != nil {
		return nil, err
	}
	size := spec.FlowSize(spec.EffectiveFlows()[0])
	gate := admission{
		tick:      int64(g.tick),
		frameWire: int64(wire.FrameTime(env.TX().Speed(), size+proto.FCSLen)),
	}
	tr := flow.NewTracker(flow.Config{Latency: true})
	res, err := launchFlowTx(env, flowTxConfig{admit: gate.admitted})
	if err != nil {
		return nil, err
	}
	sink := env.LaunchFlowSink(tr)

	rep := &Report{}
	env.RunAndCollect(rep)
	collectFlows(rep, spec, res, tr)
	var admitted, dropped uint64
	for fi := range res.sent {
		admitted += res.sent[fi]
		dropped += res.overload[fi]
	}
	rep.AddRow("slots admitted at the line-rate gate", float64(admitted), "packets")
	rep.AddRow("slots tail-dropped (overload)", float64(dropped), "slots")
	rep.AddRow("rx frames attributed", float64(sink.Received), "packets")
	rep.Notes = append(rep.Notes,
		"loss model: ideal bufferless line-rate server per global slot (pure function of the slot index)")
	return rep, nil
}

// reorderScenario exercises the tracker's reordering and duplication
// detection: the generator applies a deterministic displacement to the
// stamped sequence numbers — every fourth flow-local pair leaves in
// swapped order, modeling the interleaving a flow sprayed across
// independent transmit queues suffers (§3.3: queues are scheduled
// independently, so multi-queue transmission reorders within a flow)
// — and duplicates every 64th packet.
type reorderScenario struct{ flowSlots }

// reorderSwapEvery swaps one pair in this many; reorderDupEvery
// duplicates one packet in this many (per flow).
const (
	reorderSwapEvery = 4
	reorderDupEvery  = 64
)

func (reorderScenario) Name() string { return "reorder" }
func (reorderScenario) Describe() string {
	return "multi-queue reordering detector: displaced sequence stamps, per-flow reorder/duplicate counts"
}

func (reorderScenario) DefaultSpec() Spec {
	return Spec{
		Pattern:  PatternSoftCBR,
		RateMpps: 2,
		PktSize:  60,
		Runtime:  20 * sim.Millisecond,
		Flows:    FlowSet(4),
	}
}

func (reorderScenario) Run(env *Env) (*Report, error) {
	tr := flow.NewTracker(flow.Config{Latency: true})
	res, err := launchFlowTx(env, flowTxConfig{
		stampSeq: func(s uint64) uint64 {
			if (s/2)%reorderSwapEvery == 0 {
				return s ^ 1 // the pair (2m, 2m+1) departs as (2m+1, 2m)
			}
			return s
		},
		dupEvery: reorderDupEvery,
	})
	if err != nil {
		return nil, err
	}
	sink := env.LaunchFlowSink(tr)

	rep := &Report{}
	env.RunAndCollect(rep)
	collectFlows(rep, env.Spec, res, tr)
	rep.AddRow("rx frames attributed", float64(sink.Received), "packets")
	rep.Notes = append(rep.Notes,
		"reorder model: every 4th flow-local pair swapped, every 64th packet duplicated (deterministic)")
	return rep, nil
}

func init() {
	Register(lossOverloadScenario{})
	Register(reorderScenario{})
}
