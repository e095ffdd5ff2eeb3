package scenario

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/mempool"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

// reflectScenario exercises the request/response protocols the plain
// load generators never touch (arp.lua / icmp echo in MoonGen): the
// generator paces ICMP echo requests — with the send time embedded in
// the payload — plus periodic ARP requests toward the sink; a
// responder task on the sink parses each request and answers in kind
// (echo reply with the payload mirrored, ARP reply with the addresses
// swapped); the generator matches replies and histograms round-trip
// times. Both directions of the duplex link carry traffic.
type reflectScenario struct{}

// arpEvery is the request mix: one ARP request per arpEvery ICMP echos.
const arpEvery = 16

func (reflectScenario) Name() string { return "reflect" }
func (reflectScenario) Describe() string {
	return "ICMP echo + ARP responder: paced requests, in-kind replies, RTT histogram"
}

// SingleCoreOnly implements the sharding guard: the reply-rate row is
// a percentage that must not be summed across shards.
func (reflectScenario) SingleCoreOnly() string {
	return "the echo/ARP exchange reports reply-rate percentages that must not be summed"
}

func (reflectScenario) DefaultSpec() Spec {
	return Spec{
		RateMpps: 0.05,
		PktSize:  60,
		Runtime:  50 * sim.Millisecond,
	}
}

func (reflectScenario) Run(env *Env) (*Report, error) {
	spec := env.Spec
	if spec.UseDuT {
		return nil, fmt.Errorf("reflect needs the duplex testbed, not a one-way DuT path")
	}
	if spec.RateMpps <= 0 {
		return nil, fmt.Errorf("reflect needs a request rate (got %v)", spec)
	}
	size := spec.PktSize
	minSize := proto.EthHdrLen + proto.IPv4HdrLen + proto.ICMPHdrLen + 8 // 8B embedded send time
	if size < minSize {
		return nil, fmt.Errorf("reflect needs frames of at least %d B (got %d)", minSize, size)
	}
	flow := spec.EffectiveFlows()[0]
	app := env.App()
	tx, rx := env.TX(), env.RX()
	icmpLen := size - proto.EthHdrLen - proto.IPv4HdrLen

	// Requester: paced like a software generator (one packet per
	// deadline); every arpEvery-th request is an ARP who-has instead of
	// an echo.
	var echoSent, arpSent uint64
	reqPool := core.CreateMemPool(2048, nil)
	interval := sim.FromSeconds(1 / (spec.RateMpps * 1e6))
	var seq uint64
	request := func(m *mempool.Mbuf, now sim.Time) {
		if seq%arpEvery == arpEvery-1 {
			proto.EthHdr(m.Payload()).Fill(proto.EthFill{
				Src: tx.MAC(), Dst: proto.BroadcastMAC, EtherType: proto.EtherTypeARP,
			})
			proto.ARPHdr(m.Payload()[proto.EthHdrLen:]).Fill(proto.ARPFill{
				Op:        proto.ARPOpRequest,
				SenderMAC: tx.MAC(), SenderIP: flow.SrcIP,
				TargetIP: flow.DstIP,
			})
			arpSent++
		} else {
			p := proto.ICMPPacket{B: m.Payload()}
			p.Fill(proto.ICMPPacketFill{
				PktLength: size,
				EthSrc:    tx.MAC(), EthDst: rx.MAC(),
				IPSrc: flow.SrcIP, IPDst: flow.DstIP,
				Type: proto.ICMPTypeEcho,
				ID:   0xbeef, Seq: uint16(seq),
			})
			binary.BigEndian.PutUint64(p.ICMP().Payload(), uint64(now))
			p.ICMP().CalcChecksumV4(icmpLen)
			echoSent++
		}
		seq++
	}
	requester := &core.PushTx{Queue: tx.GetTxQueue(0), Schedule: core.Uniform(interval, interval)}
	requester.Slot = func(uint64) { requester.Send(reqPool, size, request) }
	app.LaunchTask("requester", requester.Run)

	// Responder: the sink answers every request in kind on its own
	// transmit queue — the duplex link carries the replies back.
	var echoAnswered, arpAnswered, badChecksum uint64
	respPool := core.CreateMemPool(2048, nil)
	responder := &core.PollRx{Queue: rx.GetRxQueue(0), Batch: 256, Poll: sim.Microsecond,
		Burst: func(bufs []*mempool.Mbuf, _ sim.Time) {
			for _, m := range bufs {
				if r := answer(m, rx, respPool, icmpLen, &echoAnswered, &arpAnswered, &badChecksum); r != nil {
					if !rx.GetTxQueue(0).SendOne(r) {
						r.Free()
					}
				}
			}
		}}
	app.LaunchTask("responder", responder.Run)

	// Collector: the generator's receive side matches replies and
	// recovers the embedded send time for the RTT histogram, whose
	// samples are software poll instants at 1 ns resolution.
	var echoReplies, arpReplies uint64
	rtt := stats.NewHistogram(sim.Nanosecond)
	collector := &core.PollRx{Queue: tx.GetRxQueue(0), Batch: 256, Poll: sim.Microsecond,
		Burst: func(bufs []*mempool.Mbuf, now sim.Time) {
			for _, m := range bufs {
				data := m.Payload()
				switch proto.EthHdr(data).EtherType() {
				case proto.EtherTypeARP:
					if proto.ARPHdr(data[proto.EthHdrLen:]).Op() == proto.ARPOpReply {
						arpReplies++
					}
				case proto.EtherTypeIPv4:
					p := proto.ICMPPacket{B: data}
					if p.IP().Protocol() == proto.IPProtoICMP && p.ICMP().Type() == proto.ICMPTypeEchoReply {
						echoReplies++
						sent := sim.Time(binary.BigEndian.Uint64(p.ICMP().Payload()))
						rtt.Add(now.Sub(sent))
					}
				}
			}
		}}
	app.LaunchTask("collector", collector.Run)

	rep := &Report{}
	env.RunAndCollect(rep)
	rep.Latency = rtt
	rep.AddRow("icmp echo requests sent", float64(echoSent), "packets")
	rep.AddRow("icmp echo replies sent by responder", float64(echoAnswered), "packets")
	rep.AddRow("icmp echo replies received", float64(echoReplies), "packets")
	rep.AddRow("arp requests sent", float64(arpSent), "packets")
	rep.AddRow("arp replies sent by responder", float64(arpAnswered), "packets")
	rep.AddRow("arp replies received", float64(arpReplies), "packets")
	rep.AddRow("responder bad checksums", float64(badChecksum), "packets")
	if total := echoSent + arpSent; total > 0 {
		rep.AddRow("reply rate", float64(echoReplies+arpReplies)/float64(total)*100, "%")
	}
	return rep, nil
}

// answer builds the in-kind reply for one received frame, or nil for
// traffic the responder does not speak.
func answer(m *mempool.Mbuf, rx *core.Device, pool *mempool.Pool, icmpLen int,
	echoAnswered, arpAnswered, badChecksum *uint64) *mempool.Mbuf {
	data := m.Payload()
	switch proto.EthHdr(data).EtherType() {
	case proto.EtherTypeARP:
		req := proto.ARPHdr(data[proto.EthHdrLen:])
		if req.Op() != proto.ARPOpRequest {
			return nil
		}
		r := pool.Alloc(m.Len)
		if r == nil {
			return nil
		}
		proto.EthHdr(r.Payload()).Fill(proto.EthFill{
			Src: rx.MAC(), Dst: req.SenderMAC(), EtherType: proto.EtherTypeARP,
		})
		proto.ARPHdr(r.Payload()[proto.EthHdrLen:]).Fill(proto.ARPFill{
			Op:        proto.ARPOpReply,
			SenderMAC: rx.MAC(), SenderIP: req.TargetIP(),
			TargetMAC: req.SenderMAC(), TargetIP: req.SenderIP(),
		})
		*arpAnswered++
		return r
	case proto.EtherTypeIPv4:
		p := proto.ICMPPacket{B: data}
		if p.IP().Protocol() != proto.IPProtoICMP || p.ICMP().Type() != proto.ICMPTypeEcho {
			return nil
		}
		if !p.ICMP().VerifyChecksumV4(icmpLen) {
			*badChecksum++
			return nil
		}
		r := pool.Alloc(m.Len)
		if r == nil {
			return nil
		}
		copy(r.Payload(), data)
		rp := proto.ICMPPacket{B: r.Payload()}
		rp.Eth().Fill(proto.EthFill{Src: rx.MAC(), Dst: p.Eth().Src(), EtherType: proto.EtherTypeIPv4})
		rp.IP().SetSrc(p.IP().Dst())
		rp.IP().SetDst(p.IP().Src())
		rp.IP().CalcChecksum()
		rp.ICMP().SetType(proto.ICMPTypeEchoReply)
		rp.ICMP().CalcChecksumV4(icmpLen)
		*echoAnswered++
		return r
	}
	return nil
}

func init() { Register(reflectScenario{}) }
