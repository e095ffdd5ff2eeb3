package nic

import (
	"repro/internal/mempool"
	"repro/internal/ring"
)

// RxQueue is one hardware receive queue. The port's receive path
// steers validated frames into it (RSS hash); the application drains
// it in bursts, DPDK style. Like the port's counters it belongs to the
// port's engine: RecvBurst pulls the port's due arrivals
// first, so they must run on that engine (or after its run returned).
type RxQueue struct {
	port *Port
	id   int
	ring ring.Ring[*mempool.Mbuf]
	size int // descriptors: the ring holds at most size buffers
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

// Port returns the owning port.
func (q *RxQueue) Port() *Port { return q.port }

// RecvBurst fills out with received buffers and returns the count
// (possibly zero — the non-blocking burst receive MoonGen's
// counterSlave loops on). The caller owns the returned buffers and
// must free them (Port.RxBufArray gives a batch wrapper whose FreeAll
// returns them to the port's receive pool).
func (q *RxQueue) RecvBurst(out []*mempool.Mbuf) int {
	q.port.PullRx()
	n := min(len(out), q.ring.Len())
	for i := range n {
		out[i], _ = q.ring.Pop()
	}
	return n
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
