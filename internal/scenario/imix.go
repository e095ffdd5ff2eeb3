package scenario

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mempool"
	"repro/internal/sim"
)

// imixScenario generates an internet-mix of frame sizes (the classic
// 7:4:1 simple IMIX by default) and sweeps the hardware shaper through
// Steps rate points across one run — each segment's achieved rate is
// reported separately, so one invocation produces a small rate/
// throughput curve instead of a single operating point.
type imixScenario struct{}

func (imixScenario) Name() string { return "imix" }
func (imixScenario) Describe() string {
	return "IMIX size mix swept across rate steps, per-size and per-step breakdown"
}

// SingleCoreOnly implements the sharding guard: the per-step targets
// and the average-frame-size row are ratios that must not be summed
// across shards.
func (imixScenario) SingleCoreOnly() string {
	return "the rate-step sweep reports per-step ratios that must not be summed"
}

func (imixScenario) DefaultSpec() Spec {
	return Spec{
		Pattern:  PatternCBR,
		RateMpps: 2,
		Mix:      IMIXMix,
		Steps:    4,
		Runtime:  80 * sim.Millisecond,
	}
}

func (imixScenario) Run(env *Env) (*Report, error) {
	spec := env.Spec
	mix := spec.Mix
	if len(mix) == 0 {
		mix = IMIXMix
	}
	steps := spec.Steps
	if steps <= 0 {
		steps = 4
	}
	if spec.RateMpps <= 0 {
		return nil, fmt.Errorf("imix needs a target rate (got %v)", spec)
	}
	flow := spec.EffectiveFlows()[0]

	// Per-size fill functions and cumulative weights for the draw.
	totalWeight := 0
	cum := make([]int, len(mix))
	fills := make([]func(*mempool.Mbuf, uint64), len(mix))
	for i, sh := range mix {
		if sh.Size <= 0 || sh.Weight <= 0 {
			return nil, fmt.Errorf("imix: bad mix entry %+v", sh)
		}
		totalWeight += sh.Weight
		cum[i] = totalWeight
		fills[i] = env.FlowFill(flow, sh.Size)
	}

	app := env.App()
	q := env.TX().GetTxQueue(0)
	pool := core.CreateMemPool(8192, nil)
	sizeCount := make([]uint64, len(mix))

	// The transmit task keeps the shaped queue full with mixed-size
	// packets; the shaper sweep below changes the drain rate per
	// segment while the task never goes idle (§7.2's "keep all
	// available queues completely filled").
	app.LaunchTask("imix-load", func(t *core.Task) {
		rng := t.Engine().Rand()
		si := 0 // size index of the burst's one frame
		tx := &core.BurstTx{Queue: q, Bufs: pool.BufArray(1),
			Frame: func(m *mempool.Mbuf, i uint64) {
				w := rng.Intn(totalWeight)
				for si = 0; cum[si] <= w; {
					si++
				}
				m.Reset(mix[si].Size)
				fills[si](m, i)
				m.TxMeta.OffloadIPChecksum = true
				m.TxMeta.OffloadUDPChecksum = true
			},
			// The tally counts only frames the queue accepted.
			AfterSend: func(_, sent int) { sizeCount[si] += uint64(sent) },
		}
		tx.Run(t)
	})
	env.DrainRx()

	// Rate sweep: segment s runs at target*(s+1)/steps. The first
	// segment's rate is configured before the load task ever runs, so
	// no unshaped burst pollutes its achieved-rate row; later
	// boundaries reconfigure the shaper and snapshot the rx counter.
	window := spec.Runtime
	segDur := window / sim.Duration(steps)
	rxAt := make([]uint64, steps+1)
	q.SetRatePPS(spec.RateMpps * 1e6 / float64(steps))
	for s := 1; s < steps; s++ {
		s := s
		pps := spec.RateMpps * 1e6 * float64(s+1) / float64(steps)
		app.Eng.Schedule(app.Now().Add(segDur*sim.Duration(s)), func() {
			q.SetRatePPS(pps)
			rxAt[s] = env.RX().CounterSnapshot().RxPackets
		})
	}
	app.Eng.Schedule(app.Now().Add(segDur*sim.Duration(steps)), func() {
		rxAt[steps] = env.RX().CounterSnapshot().RxPackets
	})

	rep := &Report{}
	env.RunAndCollect(rep)

	for s := 0; s < steps; s++ {
		target := spec.RateMpps * float64(s+1) / float64(steps)
		achieved := float64(rxAt[s+1]-rxAt[s]) / segDur.Seconds() / 1e6
		rep.AddRow(fmt.Sprintf("step %d: target %.3f Mpps, achieved", s+1, target), achieved, "Mpps")
	}
	var pkts, bytes uint64
	for si, n := range sizeCount {
		pkts += n
		bytes += n * uint64(mix[si].Size)
		rep.AddRow(fmt.Sprintf("%d B share (weight %d/%d)", mix[si].Size, mix[si].Weight, totalWeight),
			float64(n), "packets")
	}
	if pkts > 0 {
		rep.AddRow("average frame size", float64(bytes)/float64(pkts), "B")
	}
	return rep, nil
}

func init() { Register(imixScenario{}) }
