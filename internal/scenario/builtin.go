package scenario

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/rate"
	"repro/internal/sim"
	"repro/internal/wire"
)

// loadScenario is the family of single-flow load generators that made
// up the old cmd/moongen switch: the pattern (line rate, hardware CBR,
// Poisson or bursts via CRC-gap pacing) and optional latency probing
// come from the Spec; the testbed comes from the Env.
type loadScenario struct {
	name string
	desc string
	spec Spec
}

func (l *loadScenario) Name() string      { return l.name }
func (l *loadScenario) Describe() string  { return l.desc }
func (l *loadScenario) DefaultSpec() Spec { return l.spec }

func (l *loadScenario) Run(env *Env) (*Report, error) {
	finish, err := LaunchLoad(env)
	if err != nil {
		return nil, err
	}
	env.DrainRx()
	rep := &Report{}
	env.LaunchProbes(rep)
	env.RunAndCollect(rep)
	finish(rep)
	env.CollectDuT(rep)
	return rep, nil
}

// LaunchLoad starts the spec's load task for its first flow: the
// common transmit half of every load scenario. The returned finish
// function appends the task's transmit-side results (per-flow sent
// counts, CRC-gap filler statistics) to a report once the run is over.
func LaunchLoad(env *Env) (finish func(*Report), err error) {
	spec := env.Spec
	flow := spec.EffectiveFlows()[0]
	size := spec.FlowSize(flow)
	q := env.TX().GetTxQueue(0)
	fill := env.FlowFill(flow, size)

	pps := spec.RateMpps * 1e6
	switch spec.Pattern {
	case PatternLineRate:
		pool := env.NewFlowPool(flow, size, 4096)
		flood := &core.UDPFlood{
			Queue: q, PktSize: size,
			BaseIP: flow.SrcIP, Randomize: flow.SrcIPCount,
			Pool: pool, Batch: spec.Batch,
		}
		if pps > 0 {
			q.SetRatePPS(pps)
		}
		env.App().LaunchTask("flood", flood.Run)
		finish = func(rep *Report) {
			rep.Flows = append(rep.Flows, FlowReport{Name: flow.Name, TxPackets: flood.Sent})
		}
	case PatternCBR:
		g, err := spec.slots()
		if err != nil {
			return nil, err
		}
		h := &core.HWRateTx{Queue: q, PPS: pps, PktSize: size, Fill: fill, Delay: g.at(0), Batch: spec.Batch}
		env.App().LaunchTask("cbr", h.Run)
		finish = func(rep *Report) {
			rep.Flows = append(rep.Flows, FlowReport{Name: flow.Name, TxPackets: h.Sent})
		}
	case PatternSoftCBR:
		g, err := spec.slots()
		if err != nil {
			return nil, err
		}
		// Packets leave on the exact slot grid, so merged counts are
		// invariant in the shard count. The pool is prefilled with the
		// flow's frame, so a slot only sends it.
		pool := env.NewFlowPool(flow, size, 4096)
		soft := &core.PushTx{Queue: q, Schedule: g.at, Batch: spec.Batch}
		soft.Slot = func(uint64) { soft.Send(pool, size, nil) }
		env.App().LaunchTask("softcbr", soft.Run)
		finish = func(rep *Report) {
			rep.Flows = append(rep.Flows, FlowReport{Name: flow.Name, TxPackets: soft.Sent})
		}
	case PatternPoisson, PatternBursts:
		if pps <= 0 {
			return nil, fmt.Errorf("pattern %s needs a rate (got %v)", spec.Pattern, spec)
		}
		var pat rate.Pattern = rate.NewPoissonPPS(pps)
		if spec.Pattern == PatternBursts {
			b2b := wire.FrameTime(q.Port().Speed(), size+proto.FCSLen)
			pat = &rate.Bursts{Size: spec.Burst, AvgInterval: sim.FromSeconds(1 / pps), BackToBack: b2b}
		}
		g := &core.GapTx{Queue: q, Pattern: pat, PktSize: size, Fill: fill, Batch: spec.Batch}
		env.App().LaunchTask(string(spec.Pattern), g.Run)
		finish = func(rep *Report) {
			rep.Flows = append(rep.Flows, FlowReport{Name: flow.Name, TxPackets: g.Sent})
			rep.AddRow("crc-gap filler frames", float64(g.Fillers), "packets")
			rep.AddRow("gaps folded into debt (§8.4)", float64(g.SkippedGaps), "gaps")
		}
	default:
		return nil, fmt.Errorf("unknown pattern %q", spec.Pattern)
	}
	return finish, nil
}

func init() {
	Register(&loadScenario{
		name: "flood",
		desc: "line-rate UDP flood with randomized source IPs (Listing 2)",
		spec: Spec{Pattern: PatternLineRate},
	})
	Register(&loadScenario{
		name: "cbr",
		desc: "hardware-rate-controlled CBR stream (§7.2)",
		spec: Spec{Pattern: PatternCBR, RateMpps: 1},
	})
	Register(&loadScenario{
		name: "poisson",
		desc: "Poisson traffic via CRC-gap software rate control (§8)",
		spec: Spec{Pattern: PatternPoisson, RateMpps: 1},
	})
	Register(&loadScenario{
		name: "bursts",
		desc: "bursty traffic with back-to-back groups (l2-bursts.lua)",
		spec: Spec{Pattern: PatternBursts, RateMpps: 1, Burst: 16},
	})
	Register(&loadScenario{
		name: "softcbr",
		desc: "software-paced exact CBR on a deterministic grid (multicore reference)",
		spec: Spec{Pattern: PatternSoftCBR, RateMpps: 1},
	})
	Register(&loadScenario{
		name: "latency",
		desc: "CBR load plus hardware-timestamped latency probes (§6)",
		spec: Spec{Pattern: PatternCBR, RateMpps: 1, Probes: 500},
	})
}
