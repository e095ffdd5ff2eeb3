// Package ring provides bounded lock-free FIFO queues in the style of
// DPDK's rte_ring.
//
// Two variants are provided: SPSC (single producer, single consumer),
// which is the common case for NIC descriptor queues — MoonGen assigns
// each hardware queue to exactly one task — and MPMC (multi producer,
// multi consumer) for inter-task pipes. Both are fixed-capacity
// power-of-two rings with bulk enqueue/dequeue operations, because batch
// processing is the fundamental technique for high packet rates (paper
// §4.2: "Batch processing is an important technique for high-speed
// packet processing").
//
// All operations are non-blocking: an enqueue into a full ring and a
// dequeue from an empty ring return short counts rather than waiting,
// mirroring DPDK's rte_ring_enqueue_burst semantics that make MoonGen's
// queue:send/queue:recv loops work.
package ring

import (
	"fmt"
	"sync/atomic"
)

// ceilPow2 rounds n up to the next power of two (minimum 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// SPSC is a single-producer single-consumer bounded queue. Exactly one
// goroutine may call enqueue methods and exactly one may call dequeue
// methods; the two may be different goroutines without further locking.
type SPSC[T any] struct {
	buf  []T
	mask uint64
	// head is the consumer position, tail the producer position.
	// Padding keeps the two hot cachelines apart.
	head atomic.Uint64
	_    [7]uint64
	tail atomic.Uint64
	_    [7]uint64
}

// NewSPSC returns an SPSC ring with capacity rounded up to a power of
// two. Capacity must be positive.
func NewSPSC[T any](capacity int) *SPSC[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("ring: invalid capacity %d", capacity))
	}
	n := ceilPow2(capacity)
	return &SPSC[T]{buf: make([]T, n), mask: uint64(n - 1)}
}

// Cap returns the ring capacity.
func (r *SPSC[T]) Cap() int { return len(r.buf) }

// Len returns the number of queued items. It is a snapshot: with
// concurrent producer/consumer it may be stale by the time it returns.
func (r *SPSC[T]) Len() int {
	return int(r.tail.Load() - r.head.Load())
}

// Free returns the remaining capacity (snapshot).
func (r *SPSC[T]) Free() int { return r.Cap() - r.Len() }

// EnqueueBurst adds up to len(items) items under one producer-index
// publication and returns how many were added (possibly zero if the
// ring is full). Items are added in order; on a short count, the prefix
// items[:n] was added. This is rte_ring_enqueue_burst: the burst is the
// unit of work, the short count is the backpressure signal.
func (r *SPSC[T]) EnqueueBurst(items []T) int {
	tail := r.tail.Load()
	head := r.head.Load()
	free := uint64(len(r.buf)) - (tail - head)
	n := uint64(len(items))
	if n > free {
		n = free
	}
	if n == 0 {
		return 0
	}
	for i := uint64(0); i < n; i++ {
		r.buf[(tail+i)&r.mask] = items[i]
	}
	r.tail.Store(tail + n) // release: publishes the writes above
	return int(n)
}

// EnqueueOne adds a single item, reporting whether there was room. It
// is the direct single-item path (no burst slice), used by per-packet
// senders.
func (r *SPSC[T]) EnqueueOne(item T) bool {
	tail := r.tail.Load()
	if uint64(len(r.buf))-(tail-r.head.Load()) == 0 {
		return false
	}
	r.buf[tail&r.mask] = item
	r.tail.Store(tail + 1) // release: publishes the write above
	return true
}

// DequeueBurst removes up to len(out) items into out under one
// consumer-index publication and returns the count (possibly zero if
// the ring is empty) — rte_ring_dequeue_burst.
func (r *SPSC[T]) DequeueBurst(out []T) int {
	head := r.head.Load()
	tail := r.tail.Load()
	avail := tail - head
	n := uint64(len(out))
	if n > avail {
		n = avail
	}
	if n == 0 {
		return 0
	}
	var zero T
	for i := uint64(0); i < n; i++ {
		idx := (head + i) & r.mask
		out[i] = r.buf[idx]
		r.buf[idx] = zero // drop reference for GC
	}
	r.head.Store(head + n)
	return int(n)
}

// DequeueOne removes a single item, reporting whether one was
// available. It is the direct single-item path (no burst slice): the
// MAC scheduler commits one frame at a time off the descriptor ring.
func (r *SPSC[T]) DequeueOne() (T, bool) {
	head := r.head.Load()
	var zero T
	if r.tail.Load() == head {
		return zero, false
	}
	idx := head & r.mask
	v := r.buf[idx]
	r.buf[idx] = zero // drop reference for GC
	r.head.Store(head + 1)
	return v, true
}

// Peek returns the item at the head without removing it.
func (r *SPSC[T]) Peek() (T, bool) {
	head := r.head.Load()
	if r.tail.Load() == head {
		var zero T
		return zero, false
	}
	return r.buf[head&r.mask], true
}
