package nic

import (
	"repro/internal/mempool"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/wire"
)

// RxQueue is one hardware receive queue. The port's receive path
// steers validated frames into it (RSS hash); the application drains
// it in bursts, DPDK style. Like the port's counters it belongs to the
// port's engine: RecvBurst and RecvCount pull the port's due arrivals
// first, so they must run on that engine (or after its run returned).
//
// A queue holds its frames in one of two ways, chosen by its consumer.
// A payload queue (the default) keeps each frame as the link delivered
// it, retained, and takes one of the port's receive buffers
// (PortConfig.RxPoolSize) for it until the consumer releases it: the
// buffers are a count, and no byte is copied. RecvBurst hands the
// frames out as views. A count-only queue (SetCountOnly), for a
// consumer that reads no payload, keeps one length descriptor per
// frame and takes no buffer. Both drop a frame only when the ring is
// full (RxMissed); a payload queue also drops when the port has no
// free buffer left.
type RxQueue struct {
	port *Port
	id   int
	ring ring.Ring[rxDesc]
	// stamps holds the 82580's all-packet timestamps (Profile.
	// TimestampAllRx), one per descriptor of ring, taken at delivery.
	stamps    ring.Ring[int64]
	held      []*wire.Frame     // handed out by RecvBurst, until Release
	lens      ring.Ring[uint32] // the count-only ring: frame lengths
	countOnly bool
	size      int // descriptors: the ring holds at most size frames
}

// rxDesc is a payload queue's receive descriptor: the retained frame
// and its PHY-level receive instant.
type rxDesc struct {
	f  *wire.Frame
	at sim.Time
}

func newRxQueue(p *Port, id, ringSize int) *RxQueue {
	return &RxQueue{port: p, id: id, size: ceilPow2(ringSize)}
}

// deliver accepts one steered frame, or drops it (RxMissed) when the
// port has no free receive buffer or the descriptor ring is full — the
// tail drop happens at delivery, exactly as on hardware.
func (q *RxQueue) deliver(f *wire.Frame, at sim.Time) {
	p := q.port
	if p.rxFree == 0 || q.ring.Len() == q.size {
		p.stats.RxMissed++
		return
	}
	p.rxFree--
	f.Retain()
	q.ring.Push(rxDesc{f, at})
	if p.profile.TimestampAllRx {
		// 82580: hardware timestamps every packet (§6), quantized to
		// the chip's 64 ns granularity.
		q.stamps.Push(int64(p.Clock.TimestampAt(at)))
	}
}

// deliverLen is deliver for a count-only queue: the descriptor holds
// the frame length only. SetCountOnly sized the ring to its
// descriptors, so the push never grows it and the call inlines into
// DeliverFrame.
func (q *RxQueue) deliverLen(n int) {
	if !q.lens.TryPush(uint32(n), q.size) {
		q.port.stats.RxMissed++
	}
}

// SetCountOnly makes the queue count-only: from now on it holds a
// length descriptor per frame and no buffer, and only RecvCount drains
// it. The port's due arrivals are pulled first, into the mode in force
// until now; switching a queue that then holds buffers panics.
func (q *RxQueue) SetCountOnly() {
	q.port.PullRx()
	if q.ring.Len() > 0 || len(q.held) > 0 {
		panic("nic: SetCountOnly on a receive queue that holds buffers")
	}
	q.countOnly = true
	q.lens.Reserve(q.size)
}

// RecvBurst takes up to len(out) received frames off the ring and
// returns their number (possibly zero — the non-blocking burst receive
// MoonGen's counterSlave loops on). It fills the caller's headers
// out[:n] (a nil slot gets a new one) with views of the frames: bytes,
// queue, arrival instant and, on a chip that timestamps every packet,
// hardware timestamp. A view is valid until Release and has no pool to
// be freed to. RecvBurst on a count-only queue panics.
func (q *RxQueue) RecvBurst(out []*mempool.Mbuf) int {
	if q.countOnly {
		panic("nic: RecvBurst on a count-only receive queue")
	}
	p := q.port
	p.PullRx()
	p.rxBuffered = true
	n := min(len(out), q.ring.Len())
	for i := range n {
		d, _ := q.ring.Pop()
		m := out[i]
		if m == nil {
			m = new(mempool.Mbuf)
			out[i] = m
		}
		m.Data, m.Len = d.f.Data, len(d.f.Data)
		m.RxMeta = mempool.RxMeta{Queue: q.id, Arrival: int64(d.at)}
		if p.profile.TimestampAllRx {
			m.RxMeta.Timestamp, _ = q.stamps.Pop()
			m.RxMeta.HasTimestamp = true
		}
		q.held = append(q.held, d.f)
	}
	return n
}

// Release ends the views of every frame RecvBurst handed out since the
// last Release: the frames go back to their link and their receive
// buffers to the port. The port's due arrivals are pulled first, so a
// frame due now meets the buffers as they were before the release.
func (q *RxQueue) Release() {
	q.port.PullRx()
	for i, f := range q.held {
		f.Release()
		q.held[i] = nil
	}
	q.port.rxFree += len(q.held)
	q.held = q.held[:0]
}

// RecvCount is the burst receive of a count-only queue: it takes up to
// max frames off the ring and returns their number and total length,
// the counts RecvBurst's caller would read off the buffers. It panics
// on a payload queue.
func (q *RxQueue) RecvCount(max int) (n int, bytes uint64) {
	if !q.countOnly {
		panic("nic: RecvCount on a payload receive queue")
	}
	q.port.PullRx()
	n = min(max, q.lens.Len())
	for range n {
		l, _ := q.lens.Pop()
		bytes += uint64(l)
	}
	return n, bytes
}

// ceilPow2 rounds n up to the next power of two: descriptor rings come
// in power-of-two sizes, so a 1000-entry ring has 1024 descriptors.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
