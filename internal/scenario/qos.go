package scenario

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mempool"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

// qosScenario is the paper's §4 example (quality-of-service-test.lua)
// generalized to N declared flows: every flow gets its own hardware-
// shaped TX queue and prefilled mempool, the receive side counts
// packets per flow (UDP destination port), and each flow's latency is
// sampled with hardware-timestamped probes riding that flow's own
// queue — so a backlogged queue shows up in its own histogram.
type qosScenario struct{}

func (qosScenario) Name() string { return "qos" }
func (qosScenario) Describe() string {
	return "multi-flow QoS: per-flow shaped queues, rx accounting and latency histograms"
}

func (qosScenario) DefaultSpec() Spec {
	return Spec{
		PktSize: 124, // PKT_SIZE of the example script
		Probes:  100,
		Runtime: 100 * sim.Millisecond,
		Flows: []Flow{
			{
				Name: "fg", L4: "udp", RateMpps: 0.1,
				SrcIP: proto.MustIPv4("10.0.0.1"), SrcIPCount: 255,
				DstIP: proto.MustIPv4("192.168.1.1"), SrcPort: 1234, DstPort: 43,
				TOS: 0xb8, // EF
			},
			{
				Name: "bg", L4: "udp", RateMpps: 0.8,
				SrcIP: proto.MustIPv4("10.0.0.1"), SrcIPCount: 255,
				DstIP: proto.MustIPv4("192.168.1.1"), SrcPort: 1234, DstPort: 42,
			},
		},
	}
}

func (qosScenario) Run(env *Env) (*Report, error) {
	spec := env.Spec
	if spec.UseDuT {
		// The DuT bed starts its own sink drain, which would compete
		// with the counter for the sink's queue.
		return nil, fmt.Errorf("qos needs the direct duplex testbed, not the DuT path")
	}
	flows := spec.EffectiveFlows()
	app := env.App()
	tx, rx := env.TX(), env.RX()

	// Transmit: one shaped queue and one Listing 2 flood task per flow
	// (core.UDPFlood is exactly that loop: batch alloc, source-IP
	// randomization with patched checksums, blocking send), in fixed bursts
	// of the example script's 63-packet bufArray whatever Spec.Batch.
	floods := make([]*core.UDPFlood, len(flows))
	for fi, f := range flows {
		size := spec.FlowSize(f)
		q := tx.GetTxQueue(fi)
		if f.RateMpps > 0 {
			q.SetRatePPS(f.RateMpps * 1e6)
		}
		randomize := f.SrcIPCount
		if randomize <= 0 {
			randomize = 1
		}
		floods[fi] = &core.UDPFlood{
			Queue: q, PktSize: size,
			BaseIP: f.SrcIP, Randomize: randomize,
			Pool:  env.NewFlowPool(f, size, 4096),
			Batch: mempool.DefaultBatchSize,
		}
		app.LaunchTask("load-"+f.Name, floods[fi].Run)
	}

	// Receive: the Listing 3 counter slave, keyed by UDP destination
	// port. Unmatched traffic (probes) is just freed.
	portToFlow := map[uint16]int{}
	for fi, f := range flows {
		if _, dup := portToFlow[f.DstPort]; dup {
			return nil, fmt.Errorf("qos: flows %q and %q share dst port %d",
				flows[portToFlow[f.DstPort]].Name, f.Name, f.DstPort)
		}
		portToFlow[f.DstPort] = fi
	}
	rxCount := make([]uint64, len(flows))
	ctrs := make([]*stats.Counter, len(flows))
	for fi, f := range flows {
		ctrs[fi] = env.NewCounter("rx-" + f.Name)
	}
	counter := &core.PollRx{Queue: rx.GetRxQueue(0), Batch: 256, Poll: sim.Microsecond,
		Burst: func(bufs []*mempool.Mbuf, now sim.Time) {
			for _, m := range bufs {
				pkt := proto.UDPPacket{B: m.Payload()}
				if pkt.Eth().EtherType() == proto.EtherTypeIPv4 && pkt.IP().Protocol() == proto.IPProtoUDP {
					if fi, ok := portToFlow[pkt.UDP().DstPort()]; ok {
						rxCount[fi]++
						ctrs[fi].CountPacket(m.Len, now)
					}
				}
			}
		}}
	app.LaunchTask("counter", func(t *core.Task) {
		counter.Run(t)
		for _, c := range ctrs {
			c.Finalize(t.Now())
		}
	})

	// Latency: one timestamper per flow on the flow's own queue, probed
	// round-robin (a single probe in flight at a time — the port has
	// one timestamp latch per direction, §6).
	hists := make([]*stats.Histogram, len(flows))
	var lost uint64
	if spec.Probes > 0 {
		tss := make([]*core.Timestamper, len(flows))
		for fi := range flows {
			tss[fi] = core.NewTimestamper(tx.GetTxQueue(fi), rx.Port)
			tss[fi].Timeout = 20 * sim.Millisecond
			hists[fi] = stats.NewHistogram(sim.Nanosecond)
		}
		window := spec.Runtime
		warmup := window / 20
		pace := (window - warmup) / sim.Duration(spec.Probes*len(flows)+1)
		if pace < 0 {
			pace = 0
		}
		app.LaunchTask("timestamping", func(t *core.Task) {
			t.Sleep(warmup)
			rng := t.Engine().Rand()
			for i := 0; i < spec.Probes && t.Running(); i++ {
				for fi := range flows {
					if lat, ok := tss[fi].Probe(t); ok {
						hists[fi].Add(lat)
					}
					dither := sim.Duration(rng.Int63n(int64(8 * sim.Microsecond)))
					t.Sleep(pace + dither)
				}
			}
			for _, ts := range tss {
				lost += ts.Lost
			}
		})
	}

	rep := &Report{}
	env.RunAndCollect(rep)
	rep.LostProbes = lost
	for fi, f := range flows {
		rep.Flows = append(rep.Flows, FlowReport{
			Name:      f.Name,
			TxPackets: floods[fi].Sent,
			RxPackets: rxCount[fi],
			Latency:   hists[fi],
		})
	}
	return rep, nil
}

func init() { Register(qosScenario{}) }
