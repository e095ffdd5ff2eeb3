package nic

import (
	"sync/atomic"

	"repro/internal/mempool"
	"repro/internal/ring"
)

// DefaultRxTrain is the default receive write-back train: how many
// validated frames the port stages before publishing them to a queue's
// descriptor ring under one producer-index store. It mirrors the MAC
// scheduler's DefaultTxTrain, so one RX train matches one TX train.
const DefaultRxTrain = 32

// RxQueue is one hardware receive queue. The port's receive path
// steers validated frames into it (RSS hash) in write-back trains; the
// application drains it in bursts, DPDK style.
//
// The counters are atomic so monitoring code may read them from
// outside the owning engine's goroutine (a master goroutine polling a
// sharded run's sinks) without racing the datapath.
type RxQueue struct {
	port  *Port
	id    int
	ring  *ring.SPSC[*mempool.Mbuf]
	burst *ring.Burst[*mempool.Mbuf]

	received atomic.Uint64
	missed   atomic.Uint64
}

func newRxQueue(p *Port, id, ringSize, train int) *RxQueue {
	q := &RxQueue{port: p, id: id, ring: ring.NewSPSC[*mempool.Mbuf](ringSize)}
	if train <= 0 {
		train = DefaultRxTrain
	}
	q.burst = q.ring.NewBurst(train, q.dropMissed)
	return q
}

// dropMissed recycles a frame the descriptor ring had no room for —
// the queue-full drop of the receive path (RxMissed).
func (q *RxQueue) dropMissed(m *mempool.Mbuf) {
	q.missed.Add(1)
	q.port.stage.RxMissed++
	q.port.markStatsDirty()
	q.port.rxCache.Put(m)
}

// deliver accepts one steered frame. A frame is admitted only when a
// free descriptor exists for it — staged frames already own theirs, so
// the tail drop happens here, at delivery, exactly as on hardware —
// and a full stage publishes the train.
func (q *RxQueue) deliver(m *mempool.Mbuf) {
	if q.burst.Pending() >= q.ring.Free() {
		q.dropMissed(m)
		return
	}
	q.received.Add(1)
	q.burst.Push(m)
}

// flush publishes any staged frames — the consumer-side write-back
// kick: everything delivered up to the current instant becomes visible
// before a receive call inspects the ring. Admission reserved a
// descriptor per staged frame, so the publication never overflows.
func (q *RxQueue) flush() {
	if q.burst.Pending() > 0 {
		q.burst.Flush()
	}
}

// ID returns the queue index.
func (q *RxQueue) ID() int { return q.id }

// Port returns the owning port.
func (q *RxQueue) Port() *Port { return q.port }

// Received returns the number of packets steered into this queue (each
// owning a descriptor, staged or published). Safe to call from any
// goroutine.
func (q *RxQueue) Received() uint64 { return q.received.Load() }

// Missed returns the number of packets dropped on this queue's
// receive path (pool dry or ring full). Safe to call from any
// goroutine.
func (q *RxQueue) Missed() uint64 { return q.missed.Load() }

// Pending returns the number of packets waiting in the ring. Like the
// Recv methods it is consumer-side: it publishes any staged frames
// first, so it must only be called from the owning engine's
// goroutine — cross-goroutine monitors read Received/Missed instead.
func (q *RxQueue) Pending() int {
	q.flush()
	return q.ring.Len()
}

// RecvBurst fills out with received buffers and returns the count
// (possibly zero — the non-blocking burst receive MoonGen's
// counterSlave loops on). The caller owns the returned buffers and
// must recycle them (Port.RxBufArray gives a batch wrapper whose
// FreeAll goes through the port's receive cache).
func (q *RxQueue) RecvBurst(out []*mempool.Mbuf) int {
	q.flush()
	return q.ring.DequeueBurst(out)
}
