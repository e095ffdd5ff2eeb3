package nic

import (
	"repro/internal/mempool"
	"repro/internal/ring"
)

// RxQueue is one hardware receive queue. The port's receive path
// steers validated frames into it (RSS hash); the application drains
// it in bursts, DPDK style. Like the port's counters it belongs to the
// port's engine: RecvBurst and Pending pull the port's due arrivals
// first, so they must run on that engine (or after its run returned).
type RxQueue struct {
	port *Port
	id   int
	ring *ring.SPSC[*mempool.Mbuf]
}

func newRxQueue(p *Port, id, ringSize int) *RxQueue {
	return &RxQueue{port: p, id: id, ring: ring.NewSPSC[*mempool.Mbuf](ringSize)}
}

// deliver accepts one steered frame, or drops it (RxMissed) when the
// descriptor ring is full — the tail drop happens at delivery, exactly
// as on hardware.
func (q *RxQueue) deliver(m *mempool.Mbuf) {
	if !q.ring.EnqueueOne(m) {
		q.port.stats.RxMissed++
		q.port.rxCache.Put(m)
	}
}

// Port returns the owning port.
func (q *RxQueue) Port() *Port { return q.port }

// Pending returns the number of packets waiting in the ring.
func (q *RxQueue) Pending() int {
	q.port.PullRx()
	return q.ring.Len()
}

// RecvBurst fills out with received buffers and returns the count
// (possibly zero — the non-blocking burst receive MoonGen's
// counterSlave loops on). The caller owns the returned buffers and
// must recycle them (Port.RxBufArray gives a batch wrapper whose
// FreeAll goes through the port's receive cache).
func (q *RxQueue) RecvBurst(out []*mempool.Mbuf) int {
	q.port.PullRx()
	return q.ring.DequeueBurst(out)
}
