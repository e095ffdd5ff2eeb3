package scenario

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/mempool"
	"repro/internal/proto"
	"repro/internal/sim"
)

// churnScenario exercises the tracker's million-flow table with a
// deterministic arrival/departure process: a working set of W live
// flows, each living for exactly R packets, with every departure
// immediately replaced by a fresh flow (a never-before-seen 5-tuple).
// The aggregate stream therefore ramps through slots/R distinct flows
// over a run — the scenario the flat open-addressing table exists for,
// where a map-based tracker would allocate and GC-scan per flow.
//
// Like the other flow-tracked scenarios everything is a pure function
// of the global slot index j on the softcbr grid:
//
//	gen  = j / (W·R)        — the generation (one full working set)
//	loc  = j % (W·R)        — position within the generation
//	fid  = gen·W + loc%W    — the flow's global id (never reused)
//	seq  = loc / W          — the flow-local sequence number, 0..R-1
//
// fid ≡ j (mod W), so when the shard count k divides W every flow
// lives wholly in one shard (shard i owns slots j ≡ i mod k), and the
// merged per-flow tracking equals the single-core run's at any batch
// size — the same invariance contract as loss-overload and reorder.
//
// The 5-tuple encodes fid losslessly: DstPort carries the low 16 bits
// and the destination address offsets by the high bits, so up to 2^32
// flows have distinct keys. Flows send their R packets in sequence
// order with no gaps, so a clean run reports zero lost/reordered/
// duplicate packets — any nonzero count is a tracker defect, which is
// what makes the scenario a useful million-flow acceptance harness.
type churnScenario struct{}

func (churnScenario) Name() string { return "churn" }
func (churnScenario) Describe() string {
	return "flow churn: W live flows, R-packet lifetimes, fresh 5-tuple per arrival — million-flow tracker workload"
}

func (churnScenario) DefaultSpec() Spec {
	return Spec{
		Pattern:    PatternSoftCBR,
		RateMpps:   10,
		PktSize:    60,
		Runtime:    50 * sim.Millisecond,
		ChurnFlows: 1024,
		ChurnLife:  4,
	}
}

// churnShape returns the spec's working set W and lifetime R, with
// their defaults.
func churnShape(s Spec) (W, R int) {
	W, R = s.ChurnFlows, s.ChurnLife
	if W <= 0 {
		W = 1024
	}
	if R <= 0 {
		R = 4
	}
	return W, R
}

// Population implements SlotPartitioned: flow ids are j mod W.
func (churnScenario) Population(s Spec) (int, string) {
	W, _ := churnShape(s)
	return W, "churn working set"
}

func (churnScenario) Run(env *Env) (*Report, error) {
	spec := env.Spec
	if spec.UseDuT {
		return nil, fmt.Errorf("churn needs the direct duplex testbed, not the DuT path")
	}
	W, R := churnShape(spec)
	size := spec.PktSize
	if size < proto.EthHdrLen+proto.IPv4HdrLen+proto.UDPHdrLen+flow.StampLen {
		return nil, fmt.Errorf("churn: frame size %d cannot carry the %d-byte sequence stamp", size, flow.StampLen)
	}
	g, err := spec.slots()
	if err != nil {
		return nil, err
	}

	// One template and one pool serve every flow: the per-packet work
	// is two incremental header patches (dst addr/port encode the flow
	// id) plus the header copy and sequence stamp. Per-flow pools are
	// impossible at this flow count, which is rather the point.
	base := Flow{
		Name:  "churn",
		L4:    "udp",
		SrcIP: proto.MustIPv4("10.0.0.1"),
		DstIP: proto.MustIPv4("10.1.0.1"),
		// Base ports; DstPort is repatched per packet.
		SrcPort: 1234,
		DstPort: 0,
	}
	tmpl := env.FlowTemplate(base, size)
	pool := core.CreateSizedMemPool(4096, size, func(m *mempool.Mbuf) {
		m.Len = size
		tmpl.Apply(m.Payload())
	})
	const payloadOff = proto.EthHdrLen + proto.IPv4HdrLen + proto.UDPHdrLen

	tr := flow.NewTracker(flow.Config{SeqWindow: 64})
	var started, fid, seq uint64
	fill := func(m *mempool.Mbuf, now sim.Time) {
		tmpl.SetIPDst(base.DstIP + proto.IPv4(fid>>16))
		tmpl.SetDstPort(uint16(fid))
		tmpl.Apply(m.Payload())
		flow.Stamp(m.Payload()[payloadOff:], seq, now)
	}
	WR := uint64(W) * uint64(R)
	tx := &core.PushTx{Queue: env.TX().GetTxQueue(0), Schedule: g.at}
	tx.Slot = func(n uint64) {
		j := g.slot(n)
		gen, loc := j/WR, j%WR
		fid = gen*uint64(W) + loc%uint64(W)
		seq = loc / uint64(W)
		if seq == 0 {
			started++
		}
		tx.Send(pool, size, fill)
	}
	env.App().LaunchTask("churn-tx", tx.Run)
	sink := env.LaunchFlowSink(tr)

	rep := &Report{}
	env.RunAndCollect(rep)
	tot := tr.Totals()
	rep.AddRow("flows started (tx)", float64(started), "flows")
	rep.AddRow("flows tracked (rx)", float64(tr.NumFlows()), "flows")
	rep.AddRow("flows with traffic (rx)", float64(tr.ActiveFlows()), "flows")
	rep.AddRow("rx frames attributed", float64(sink.Received), "packets")
	rep.AddRow("seq lost", float64(tot.Lost), "packets")
	rep.AddRow("seq reordered", float64(tot.Reordered), "packets")
	rep.AddRow("seq duplicates", float64(tot.Duplicates), "packets")
	if tx.Failed > 0 {
		rep.AddRow("tx slots lost to pool/ring pressure", float64(tx.Failed), "slots")
	}
	// Diagnostic, not a model row: sharded runs sum k quarter-sized
	// tables whose capacities round up independently (power-of-two
	// slots, 4096-record chunks), so the byte count legitimately
	// varies with the core count. The invariance pin excludes it.
	rep.AddRow("tracker footprint (diag)", float64(tr.FootprintBytes()), "bytes")
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"churn model: %d live flows × %d-packet lifetimes, fresh 5-tuple per arrival (pure function of the slot index)", W, R))
	return rep, nil
}

func init() {
	Register(churnScenario{})
}
