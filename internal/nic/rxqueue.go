package nic

import (
	"repro/internal/mempool"
	"repro/internal/ring"
)

// RxQueue is one hardware receive queue. The port's receive path
// steers validated frames into it (RSS hash); the application drains
// it in bursts, DPDK style. Like the port's counters it belongs to the
// port's engine: RecvBurst and RecvCount pull the port's due arrivals
// first, so they must run on that engine (or after its run returned).
//
// A queue holds its frames in one of two ways, chosen by its consumer.
// A payload queue (the default) copies each frame into a buffer of the
// port's receive pool. A count-only queue (SetCountOnly), for a
// consumer that reads no payload, keeps one length descriptor per
// frame and takes no buffer. Both drop a frame only when the ring is
// full (RxMissed); a payload queue also drops when its pool runs dry.
type RxQueue struct {
	port      *Port
	id        int
	ring      ring.Ring[*mempool.Mbuf]
	lens      ring.Ring[uint32] // the count-only ring: frame lengths
	countOnly bool
	size      int // descriptors: the ring holds at most size frames
}

func newRxQueue(p *Port, id, ringSize int) *RxQueue {
	return &RxQueue{port: p, id: id, size: ceilPow2(ringSize)}
}

// deliver accepts one steered frame, or drops it (RxMissed) when the
// descriptor ring is full — the tail drop happens at delivery, exactly
// as on hardware.
func (q *RxQueue) deliver(m *mempool.Mbuf) {
	if q.ring.Len() == q.size {
		q.port.stats.RxMissed++
		m.Free()
		return
	}
	q.ring.Push(m)
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

// Port returns the owning port.
func (q *RxQueue) Port() *Port { return q.port }

// SetCountOnly makes the queue count-only: from now on it holds a
// length descriptor per frame and no buffer, and only RecvCount drains
// it. The port's due arrivals are pulled first, into the mode in force
// until now; switching a queue that then holds buffers panics.
func (q *RxQueue) SetCountOnly() {
	q.port.PullRx()
	if q.ring.Len() > 0 {
		panic("nic: SetCountOnly on a receive queue that holds buffers")
	}
	q.countOnly = true
	q.lens.Reserve(q.size)
}

// RecvBurst fills out with received buffers and returns the count
// (possibly zero — the non-blocking burst receive MoonGen's
// counterSlave loops on). The caller owns the returned buffers and
// must free them (Port.RxBufArray gives a batch wrapper whose FreeAll
// returns them to the port's receive pool). A count-only queue has no
// buffers: RecvBurst on it panics.
func (q *RxQueue) RecvBurst(out []*mempool.Mbuf) int {
	if q.countOnly {
		panic("nic: RecvBurst on a count-only receive queue")
	}
	q.port.PullRx()
	n := min(len(out), q.ring.Len())
	for i := range n {
		out[i], _ = q.ring.Pop()
	}
	return n
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
